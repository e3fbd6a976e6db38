package tensor

// The direct convolution's two kernels: a GEMM register tile whose B rows
// are read through an offset table, and the epilogue that stores its C
// block with the bias, ReLU and 2×2 max-pool folded in. nn's inference
// plans run every stride-1 convolution through them without lowering.
//
// The input is a "halo" image: each channel plane stored with its zero
// padding written around it, rows pitch = w+2·pad floats apart. An output
// computed at pitch-strided column j = oy·pitch + ox then reads tap
// (c, ky, kx) at c·plane + ky·pitch + kx + j: for every tap, the row of B
// the lowering would have built is one contiguous run of the image at a
// fixed offset, and the off table names it. The 2·pad columns per output
// row past ow are computed and never stored.

// convTile is the active direct-convolution tile. For one panel of
// mr ≤ gemmMR rows it computes, for every r < mr and j < n,
//
//	c[r*ldc+j] = +0, then c = round(c + round(a[r*lda+p] * b[off[p]+j]))
//
// over p = 0..k-1 ascending, skipping every step whose A element is ±0.
// That is gemmTile's chain for a C cleared first (Gemm with beta = 0) and
// B row p at b[off[p]:]; the vector bodies are gemmTile's with the B row
// address loaded from the table and the accumulators zeroed instead of
// loaded.
var convTile = convTileGeneric

func convTileGeneric(mr, n, k int, a []float32, lda int, b []float32, off []int, c []float32, ldc int) {
	for r := 0; r < mr; r++ {
		crow := c[r*ldc : r*ldc+n]
		clear(crow)
		for p := 0; p < k; p++ {
			av := a[r*lda+p]
			if av == 0 {
				continue
			}
			axpyGeneric(av, b[off[p]:off[p]+n], crow)
		}
	}
}

// ConvTile overwrites c (m rows, ldc apart) with a·B, where a is m×k (rows
// lda apart), k = len(off) and row p of B is b[off[p]:off[p]+n]: one C
// block of a direct convolution, each element the k-ascending chain of
// single-rounded multiply-adds Gemm(false, false, …, 0, c) gives it.
func ConvTile(m, n int, a []float32, lda int, b []float32, off []int, c []float32, ldc int) {
	k := len(off)
	if m <= 0 || n <= 0 {
		return
	}
	if lda < k || ldc < n || len(a) < (m-1)*lda+k || len(c) < (m-1)*ldc+n {
		panic("tensor: ConvTile operand too small")
	}
	for _, o := range off {
		if o < 0 || o > len(b)-n {
			panic("tensor: ConvTile offset outside the image")
		}
	}
	for i := 0; i < m; i += gemmMR {
		convTile(min(gemmMR, m-i), n, k, a[i*lda:], lda, b, off, c[i*ldc:], ldc)
	}
}

// convStore is the active direct-convolution epilogue. For plane
// p < planes, with
//
//	v(y, x) = act(src[p*srcPlane + y*srcPitch + x] + bias[p])
//
// — no add where bias is nil or bias[p] is ±0 (fromChannelMajor's rule: a
// zero bias is a copy, so a −0 survives), act the ReLU kernel's select
// (x > 0 ? x : +0, NaN and −0 to +0) when relu is set and nothing
// otherwise — it writes, for r < rows and i < n,
//
//	dst[p*dstPlane + r*dstPitch + i] = v(r, i)
//
// or, when pool is set, the 2×2/2 max-pool of v: the maximum of
// v(2r, 2i), v(2r, 2i+1), v(2r+1, 2i), v(2r+1, 2i+1) scanned in that
// order from −Inf with a strict >, maxPool2x2's rule. Each output is the
// separate bias add, ReLU and pool passes' value, computed while the C
// block is still in L1.
var convStore = convStoreGeneric

func convStoreGeneric(dst, src, bias []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n int, relu, pool bool) {
	for p := 0; p < planes; p++ {
		var b float32
		if bias != nil {
			b = bias[p]
		}
		s, d := src[p*srcPlane:], dst[p*dstPlane:]
		for r := 0; r < rows; r++ {
			dr := d[r*dstPitch:][:n]
			if !pool {
				for i, x := range s[r*srcPitch:][:n] {
					dr[i] = convEpilogue(x, b, relu)
				}
				continue
			}
			r0, r1 := s[2*r*srcPitch:][:2*n], s[(2*r+1)*srcPitch:][:2*n]
			for i := range dr {
				best := negInf
				if v := convEpilogue(r0[2*i], b, relu); v > best {
					best = v
				}
				if v := convEpilogue(r0[2*i+1], b, relu); v > best {
					best = v
				}
				if v := convEpilogue(r1[2*i], b, relu); v > best {
					best = v
				}
				if v := convEpilogue(r1[2*i+1], b, relu); v > best {
					best = v
				}
				dr[i] = best
			}
		}
	}
}

// convEpilogue is one C element's bias add and optional ReLU.
func convEpilogue(x, b float32, relu bool) float32 {
	if b != 0 {
		x += b
	}
	if relu && !(x > 0) {
		x = 0
	}
	return x
}

// ConvStore runs the epilogue over planes × rows × n outputs; see
// convStore. Under pool, src holds 2·rows rows of 2·n floats per plane.
func ConvStore(dst, src, bias []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n int, relu, pool bool) {
	if planes <= 0 || rows <= 0 || n <= 0 {
		return
	}
	srcRows, srcN := rows, n
	if pool {
		srcRows, srcN = 2*rows, 2*n
	}
	if (bias != nil && len(bias) < planes) || dstPitch < n || srcPitch < srcN || dstPlane < 0 || srcPlane < 0 ||
		len(dst) < (planes-1)*dstPlane+(rows-1)*dstPitch+n ||
		len(src) < (planes-1)*srcPlane+(srcRows-1)*srcPitch+srcN {
		panic("tensor: ConvStore operand too small")
	}
	convStore(dst, src, bias, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n, relu, pool)
}
