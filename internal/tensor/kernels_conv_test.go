package tensor

import (
	"fmt"
	"math"
	"testing"
)

// specials are the values whose handling the vector bodies' operand order
// decides: NaN, both infinities, both zeros, and denormals of either sign.
var specials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x80000001), math.Float32frombits(0x007FFFFF),
}

// fillSpecial fills s with normal draws, every third or so replaced by a
// special value and some repeated from the previous element, so windows
// with ties, with several NaNs and with nothing but NaN all occur.
func fillSpecial(rng *RNG, s []float32) {
	for i := range s {
		switch rng.Intn(6) {
		case 0, 1:
			s[i] = specials[rng.Intn(len(specials))]
		case 2:
			if i > 0 {
				s[i] = s[i-1]
			}
		default:
			s[i] = float32(rng.Norm())
		}
	}
}

func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %x (%v), scalar body gives %x (%v)",
				what, i, math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// kernelMaxLen bounds the lengths every kernel is tried at, from empty
// upwards: enough for each vector width's blocks, half blocks and tails.
const kernelMaxLen = 67

// TestConvKernelsBitwiseAcrossISAs holds every ISA body of the conv-unit
// kernels bitwise to the Go body, at every length 0..67 and at four
// starting offsets so no load or store is aligned by accident. A guard
// element after each destination catches a tail that writes too far.
func TestConvKernelsBitwiseAcrossISAs(t *testing.T) {
	const guard = float32(12345.5)
	withISAs(t, func(isa string) {
		rng := NewRNG(2024)
		for n := 0; n <= kernelMaxLen; n++ {
			for off := 0; off < 4; off++ {
				x := make([]float32, off+2*n)
				g := make([]float32, off+2*n)
				fillSpecial(rng, x)
				fillSpecial(rng, g)

				// ReLU forward and backward over x[off:off+n].
				got, want := make([]float32, off+n+1), make([]float32, off+n+1)
				got[off+n], want[off+n] = guard, guard
				relu(got[off:off+n], x[off:off+n])
				reluGeneric(want[off:off+n], x[off:off+n])
				requireSameBits(t, isa+" relu", got, want)
				reluGrad(got[off:off+n], x[off:off+n], g[off:off+n])
				reluGradGeneric(want[off:off+n], x[off:off+n], g[off:off+n])
				requireSameBits(t, isa+" reluGrad", got, want)

				// Pooling n outputs from two 2n-float rows.
				r0, r1 := x[off:off+2*n], g[off:off+2*n]
				maxPool2x2(got[off:off+n], r0, r1)
				maxPool2x2Generic(want[off:off+n], r0, r1)
				requireSameBits(t, isa+" maxPool2x2", got, want)

				gotIdx, wantIdx := make([]int32, off+n+1), make([]int32, off+n+1)
				gotIdx[off+n], wantIdx[off+n] = -7, -7
				base, w := int32(rng.Intn(1000)), int32(2*n+rng.Intn(5))
				clear(got[off : off+n])
				clear(want[off : off+n])
				maxPool2x2Argmax(got[off:off+n], gotIdx[off:off+n], r0, r1, base, w)
				maxPool2x2ArgmaxGeneric(want[off:off+n], wantIdx[off:off+n], r0, r1, base, w)
				requireSameBits(t, isa+" maxPool2x2Argmax", got, want)
				for i := range wantIdx {
					if gotIdx[i] != wantIdx[i] {
						t.Fatalf("%s maxPool2x2Argmax n=%d: winner %d at %d, scalar body says %d", isa, n, i, gotIdx[i], wantIdx[i])
					}
				}
			}
		}
	})
}

// TestPoolKernelTiesAndNaNWindows spells out the cases the fingerprints
// depend on rather than leaving them to the random fill: first-wins among
// equals in (ky,kx) scan order — +0 against −0 included — NaN never
// winning, and an all-NaN window giving −Inf at offset 0.
func TestPoolKernelTiesAndNaNWindows(t *testing.T) {
	nan, ninf := float32(math.NaN()), float32(math.Inf(-1))
	nz := float32(math.Copysign(0, -1))
	windows := []struct {
		tl, tr, bl, br float32
		want           float32
		at             int32 // 0 tl, 1 tr, 2 bl, 3 br, -1 none
	}{
		{1, 1, 1, 1, 1, 0},
		{0, 2, 2, 1, 2, 1},
		{nz, 0, 0, nz, nz, 0},
		{0, nz, nz, 0, 0, 0},
		{nan, nan, nan, nan, ninf, -1},
		{nan, 3, nan, 3, 3, 1},
		{ninf, ninf, ninf, ninf, ninf, -1},
		{nan, ninf, -5, nan, -5, 2},
		{-1, nan, nan, nz, nz, 3},
	}
	withISAs(t, func(isa string) {
		// Tile the windows across 40 outputs so every one lands in the
		// vector body, the half block and the tail of each ISA.
		const n, base, w = 40, 300, 96
		r0, r1 := make([]float32, 2*n), make([]float32, 2*n)
		for i := 0; i < n; i++ {
			win := windows[i%len(windows)]
			r0[2*i], r0[2*i+1], r1[2*i], r1[2*i+1] = win.tl, win.tr, win.bl, win.br
		}
		dst, dstA, idx := make([]float32, n), make([]float32, n), make([]int32, n)
		MaxPool2x2(dst, r0, r1)
		MaxPool2x2Argmax(dstA, idx, r0, r1, base, w)
		for i := 0; i < n; i++ {
			win := windows[i%len(windows)]
			at := int32(0)
			switch win.at {
			case 0, 1:
				at = base + int32(2*i) + win.at
			case 2, 3:
				at = base + w + int32(2*i) + win.at - 2
			}
			if math.Float32bits(dst[i]) != math.Float32bits(win.want) || math.Float32bits(dstA[i]) != math.Float32bits(win.want) {
				t.Fatalf("%s window %d %+v: max %v / %v, want %v", isa, i, win, dst[i], dstA[i], win.want)
			}
			if idx[i] != at {
				t.Fatalf("%s window %d %+v: winner offset %d, want %d", isa, i, win, idx[i], at)
			}
		}
	})
}

// canonicalNaNs gives every NaN in s the same payload: when both addends
// of an add are NaN, which payload survives is not part of the contract.
func canonicalNaNs(s []float32) {
	for i, v := range s {
		if v != v {
			s[i] = float32(math.NaN())
		}
	}
}

// TestRowKernelsBitwiseAcrossISAs covers the row gather and its mirror add:
// steps 1 to 3 (the add has vector bodies for 1 and 2, the gather for 2;
// the rest is the Go body reached through the assembly's tail jump), widths
// 0..67 so every block count and every mask tail occurs, plane and row
// counts from none, pitches at and above the minimum, unaligned starts.
// Both slices end at the last element the kernel may touch, and everything
// it may not touch — between the steps, the rows and the planes, before the
// start — must come back bit for bit.
func TestRowKernelsBitwiseAcrossISAs(t *testing.T) {
	withISAs(t, func(isa string) {
		rng := NewRNG(23)
		for step := 1; step <= 3; step++ {
			for n := 0; n <= kernelMaxLen; n++ {
				for _, shape := range [][2]int{{1, 0}, {0, 2}, {1, 1}, {1, 5}, {2, 2}, {3, 4}} {
					planes, rows := shape[0], shape[1]
					span := max(n-1, 0)*step + 1 // floats one strided row covers
					cp, sp := n+rng.Intn(4), span+rng.Intn(4)
					cpl, spl := rows*cp+rng.Intn(4), rows*sp+rng.Intn(4)
					off := rng.Intn(4)
					lastP, lastR := max(planes-1, 0), max(rows-1, 0)
					contig := make([]float32, off+lastP*cpl+lastR*cp+n)
					strided := make([]float32, off+lastP*spl+lastR*sp+span)
					fillSpecial(rng, contig)
					fillSpecial(rng, strided)
					tag := fmt.Sprintf("%s step %d n %d planes %d rows %d", isa, step, n, planes, rows)

					want := append([]float32(nil), contig...)
					got := append([]float32(nil), contig...)
					gatherRows(got[off:], strided[off:], planes, cpl, spl, rows, cp, sp, n, step)
					gatherRowsGeneric(want[off:], strided[off:], planes, cpl, spl, rows, cp, sp, n, step)
					requireSameBits(t, tag+" gatherRows", got, want)

					canonicalNaNs(contig)
					canonicalNaNs(strided)
					want = append(want[:0], strided...)
					got = append(got[:0], strided...)
					scatterRows(got[off:], contig[off:], planes, spl, cpl, rows, sp, cp, n, step)
					scatterRowsGeneric(want[off:], contig[off:], planes, spl, cpl, rows, sp, cp, n, step)
					requireSameBits(t, tag+" scatterRows", got, want)
				}
			}
		}
	})
}

// TestRowSumsIsOneChainPerRow holds RowSums to one left-to-right chain per
// row, however many rows it runs side by side.
func TestRowSumsIsOneChainPerRow(t *testing.T) {
	rng := NewRNG(5)
	for rows := 0; rows <= 19; rows++ {
		for _, n := range []int{0, 1, 2, 7, 16, 33} {
			src := make([]float32, rows*n)
			got := make([]float32, rows+1)
			fillSpecial(rng, src)
			fillSpecial(rng, got)
			// No NaN goes in: ∞−∞ makes the default one mid-chain, and
			// which of two different NaNs an add keeps is not pinned.
			for _, s := range [][]float32{src, got} {
				for i, v := range s {
					if v != v {
						s[i] = 1
					}
				}
			}
			want := append([]float32(nil), got...)
			for r := 0; r < rows; r++ {
				var sum float32
				for _, v := range src[r*n : (r+1)*n] {
					sum += v
				}
				want[r] += sum
			}
			RowSums(got, src, rows, n)
			requireSameBits(t, fmt.Sprintf("RowSums %d×%d", rows, n), got, want)
		}
	}
}
