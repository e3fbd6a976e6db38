package tensor

import "sync"

// The int8 datapath of the quantized serving plan (internal/nn's
// QuantPlan). Activations are unsigned bytes with zero-point 128, stored
// channel-last; weights are signed bytes with one symmetric scale per
// output channel. Six kernels sit on the dispatch table (kernels.go):
//
//   - convS8, the micro-kernel: a run of output pixels × 16 output channels,
//     accumulated in exact int32 straight from the channel-last image. The
//     vector lanes are the output channels, so the vector is as long at a
//     4-pixel row as at a 224-pixel one, and nothing is lowered first.
//   - requantF32, requantU8 and requantPoolU8, the epilogue: zero-point
//     correction, scale and bias in fp32, then either an fp32 store or a
//     re-quantize to the consumer's grid — the last after a 2×2 max over
//     the accumulators of two output rows.
//   - quantizeU8, fp32 to contiguous bytes, and quantizePlanesU8, NCHW
//     planes into channel-last pixels.
//
// Integer sums are exact in every body. The float steps are a fixed
// sequence of IEEE operations (no FMA), so scalar, AVX2 and AVX-512 agree
// bitwise here as everywhere else on the table.

// S8Lanes is the number of output channels one convS8 call produces.
const S8Lanes = 16

// S8Block holds the requantize constants of one 16-channel block; lanes
// past the layer's last channel hold zeros.
type S8Block struct {
	Mult [S8Lanes]float32 // activation scale × the channel's weight scale
	Bias [S8Lanes]float32
	Corr [S8Lanes]int32 // 128 × the channel's weight sum: the zero-point term
}

// S8PackedLen returns the length of PackS8's output for m rows of k
// weights.
func S8PackedLen(m, k int) int {
	return (m + S8Lanes - 1) / S8Lanes * ((k + 3) / 4) * S8Lanes * 4
}

// PackS8 packs m rows of k signed weights (k contiguous per row) into the
// layout convS8 reads: one panel per block of 16 rows, and inside a panel,
// per group of four consecutive k, the four bytes of row 0, then of row 1,
// … row 15 — 64 bytes, one vector register. Rows past m and k past the
// last group's end are zero, so they add nothing whatever the activation
// bytes opposite them hold.
func PackS8(dst, a []int8, m, k int) {
	k4 := (k + 3) / 4
	if len(dst) != S8PackedLen(m, k) || len(a) < m*k {
		panic("tensor: PackS8 operand size")
	}
	clear(dst)
	for i := 0; i < m; i++ {
		panel := dst[i/S8Lanes*k4*64+i%S8Lanes*4:]
		row := a[i*k : i*k+k]
		for g := 0; 4*g < k; g++ {
			copy(panel[g*64:g*64+4], row[4*g:])
		}
	}
}

// convS8 is the active micro-kernel. For every pixel p < len(acc)/16 and
// lane l < 16,
//
//	acc[16p+l] = Σ_{r<rows} Σ_{g<k4} Σ_{t<4} x[r·rowStride + p·pixStride + 4g+t] · w[((r·k4+g)·16 + l)·4 + t]
//
// in int32. A convolution passes rows = KH, k4 = KW·C4/4, rowStride = one
// padded image row and pixStride = stride·C4; a dense layer is one row of
// N pixels.
var convS8 = convS8Generic

func convS8Generic(acc []int32, x []uint8, w []int8, rows, k4, rowStride, pixStride int) {
	for p := 0; p*S8Lanes < len(acc); p++ {
		out := acc[p*S8Lanes : p*S8Lanes+S8Lanes]
		clear(out)
		for r := 0; r < rows; r++ {
			xr := x[r*rowStride+p*pixStride:]
			wr := w[r*k4*64:]
			for g := 0; g < k4; g++ {
				a0, a1, a2, a3 := int32(xr[4*g]), int32(xr[4*g+1]), int32(xr[4*g+2]), int32(xr[4*g+3])
				wg := wr[g*64 : g*64+64]
				for l := range out {
					out[l] += a0*int32(wg[4*l]) + a1*int32(wg[4*l+1]) + a2*int32(wg[4*l+2]) + a3*int32(wg[4*l+3])
				}
			}
		}
	}
}

// ConvS8 runs the micro-kernel over len(acc)/16 pixels; see convS8.
func ConvS8(acc []int32, x []uint8, w []int8, rows, k4, rowStride, pixStride int) {
	npix := len(acc) / S8Lanes
	if npix == 0 {
		return
	}
	if len(acc)%S8Lanes != 0 || rows < 1 || k4 < 1 || len(w) < rows*k4*64 ||
		len(x) < (rows-1)*rowStride+(npix-1)*pixStride+4*k4 {
		panic("tensor: ConvS8 operand too small")
	}
	convS8(acc, x, w, rows, k4, rowStride, pixStride)
}

// requant is the fp32 half of the epilogue both stores share: one
// multiply and one add, rounded separately.
func requant(acc int32, b *S8Block, l int) float32 {
	return float32(b.Mult[l]*float32(acc-b.Corr[l])) + b.Bias[l]
}

// requantF32 is the active fp32 epilogue: for pixel p and lane l < nch,
// dst[p·pixStride + l·chanStride] = Mult[l]·float32(acc[16p+l] − Corr[l]) + Bias[l].
var requantF32 = requantF32Generic

func requantF32Generic(dst []float32, acc []int32, b *S8Block, nch, pixStride, chanStride int) {
	for p := 0; p*S8Lanes < len(acc); p++ {
		for l := 0; l < nch; l++ {
			dst[p*pixStride+l*chanStride] = requant(acc[p*S8Lanes+l], b, l)
		}
	}
}

// RequantF32 requantizes len(acc)/16 pixels of one channel block to fp32:
// nch ≤ 16 channels, chanStride floats apart, pixels pixStride apart. One
// of the two strides must be 1 — pixels adjacent (an NCHW plane per
// channel) or channels adjacent (a dense output): those are the layouts
// the vector bodies store a cache line at a time.
func RequantF32(dst []float32, acc []int32, b *S8Block, nch, pixStride, chanStride int) {
	npix := len(acc) / S8Lanes
	if npix == 0 {
		return
	}
	if nch < 1 || nch > S8Lanes || (pixStride != 1 && chanStride != 1) ||
		len(dst) <= (npix-1)*pixStride+(nch-1)*chanStride {
		panic("tensor: RequantF32 operand size or layout")
	}
	requantF32(dst, acc, b, nch, pixStride, chanStride)
}

// requantU8 is the active u8 epilogue: the fp32 value of requantF32,
// quantized with quantizeByte into dst[p·pixStride + l] for l < nbytes.
var requantU8 = requantU8Generic

func requantU8Generic(dst []uint8, acc []int32, b *S8Block, inv, lo float64, nbytes, pixStride int) {
	for p := 0; p*S8Lanes < len(acc); p++ {
		d := dst[p*pixStride : p*pixStride+nbytes]
		for l := range d {
			d[l] = quantizeByte(requant(acc[p*S8Lanes+l], b, l), inv, lo)
		}
	}
}

// RequantU8 requantizes len(acc)/16 pixels of one channel block straight
// to the consumer's bytes: q = clamp(v·inv + 128.5, lo, 255) truncated,
// nbytes ∈ {4, 8, 12, 16} of them per pixel, pixels pixStride bytes apart.
// lo = 128 is a ReLU in front of the quantizer (the zero-point is where 0
// lands, and the quantizer is monotone), lo = 0 is none.
func RequantU8(dst []uint8, acc []int32, b *S8Block, inv, lo float64, nbytes, pixStride int) {
	npix := len(acc) / S8Lanes
	if npix == 0 {
		return
	}
	if nbytes < 4 || nbytes > S8Lanes || nbytes%4 != 0 || len(dst) < (npix-1)*pixStride+nbytes {
		panic("tensor: RequantU8 operand size")
	}
	requantU8(dst, acc, b, inv, lo, nbytes, pixStride)
}

// requantPoolU8 is the active pooled u8 epilogue: for output pixel p and
// lane l < nbytes, dst[p·pixStride + l] is requantU8's byte of the largest
// of r0 and r1 at accumulator pixels 2p and 2p+1, lane l.
var requantPoolU8 = requantPoolU8Generic

func requantPoolU8Generic(dst []uint8, r0, r1 []int32, b *S8Block, inv, lo float64, nbytes, pixStride int) {
	for p := 0; p*2*S8Lanes < len(r0); p++ {
		a0, a1 := r0[2*p*S8Lanes:], r1[2*p*S8Lanes:]
		d := dst[p*pixStride : p*pixStride+nbytes]
		for l := range d {
			acc := max(a0[l], a0[S8Lanes+l], a1[l], a1[S8Lanes+l])
			d[l] = quantizeByte(requant(acc, b, l), inv, lo)
		}
	}
}

// RequantPoolU8 is RequantU8 behind a 2×2/2 max-pool: r0 and r1 hold the
// accumulators of two adjacent output rows, 2·npix pixels each, and the
// npix pooled pixels go to the consumer's bytes. Pooling before the
// requantize is exact: acc ↦ byte is non-decreasing (Mult ≥ 0, and with
// Mult = +Inf the NaN at acc = Corr lands on 128, between the two
// saturated ends), so the byte of the largest accumulator is the largest
// byte — and three quarters of the float work is never done.
func RequantPoolU8(dst []uint8, r0, r1 []int32, b *S8Block, inv, lo float64, nbytes, pixStride int) {
	npix := len(r0) / (2 * S8Lanes)
	if npix == 0 {
		return
	}
	if len(r0)%(2*S8Lanes) != 0 || len(r1) != len(r0) || nbytes < 4 || nbytes > S8Lanes || nbytes%4 != 0 ||
		len(dst) < (npix-1)*pixStride+nbytes {
		panic("tensor: RequantPoolU8 operand size")
	}
	requantPoolU8(dst, r0, r1, b, inv, lo, nbytes, pixStride)
}

// quantizeByte maps v to the zero-point-128 byte grid: round-half-up of
// v·inv + 128 clamped to [lo, 255], in float64 (adding 0.5 and truncating
// is exact because the clamp leaves nothing negative). NaN maps to the
// zero-point, which dequantizes to 0; ±Inf saturate.
func quantizeByte(v float32, inv, lo float64) uint8 {
	t := float64(float64(v)*inv) + 128.5
	switch {
	case t != t:
		return 128
	case t < lo:
		t = lo
	case t > 255:
		t = 255
	}
	return uint8(int32(t))
}

// quantizeU8 is the active flat quantizer:
// dst[i] = quantizeByte(src[i], inv, 0).
var quantizeU8 = quantizeU8Generic

func quantizeU8Generic(dst []uint8, src []float32, inv float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = quantizeByte(v, inv, 0)
	}
}

// QuantizeU8 quantizes len(src) floats into the first bytes of dst. inv is
// the reciprocal of the activation scale.
func QuantizeU8(dst []uint8, src []float32, inv float64) {
	if len(dst) < len(src) {
		panic("tensor: QuantizeU8 operand size")
	}
	quantizeU8(dst, src, inv)
}

// quantizePlanesU8 is the active interleaving quantizer: for y < h, x < w
// and j < c4,
//
//	dst[y·dstPitch + x·c4 + j] = quantizeByte(src[(j·h + y)·w + x], inv, 0)
//
// for j < c, and the zero-point 128 for the pad channels c ≤ j < c4.
var quantizePlanesU8 = quantizePlanesU8Generic

func quantizePlanesU8Generic(dst []uint8, src []float32, c, h, w, dstPitch, c4 int, inv float64) {
	for y := 0; y < h; y++ {
		d := dst[y*dstPitch : y*dstPitch+w*c4]
		for j := 0; j < c4; j++ {
			if j >= c {
				for x := 0; x < w; x++ {
					d[x*c4+j] = 128
				}
				continue
			}
			for x, v := range src[(j*h+y)*w : (j*h+y+1)*w] {
				d[x*c4+j] = quantizeByte(v, inv, 0)
			}
		}
	}
}

// QuantizePlanesU8 quantizes c NCHW planes of h×w floats into channel-last
// pixels of c4 = c rounded up to four bytes, w pixels per row and rows
// dstPitch bytes apart: the padded image an int8 convolution reads. The
// vector bodies build a pixel's four bytes from four planes in registers
// and store whole pixels; pad channels are written at the zero-point.
func QuantizePlanesU8(dst []uint8, src []float32, c, h, w, dstPitch, c4 int, inv float64) {
	if c < 1 || h < 1 || w < 1 {
		return
	}
	if c4 != (c+3)&^3 || len(src) < c*h*w || len(dst) < (h-1)*dstPitch+w*c4 {
		panic("tensor: QuantizePlanesU8 operand size")
	}
	quantizePlanesU8(dst, src, c, h, w, dstPitch, c4, inv)
}

// gemmS8Pix is how many pixels GemmS8 hands the micro-kernel at once: the
// int32 block stays in L1.
const gemmS8Pix = 64

// GemmS8 computes c[i*n+j] = Σ_p a[i*k+p] * b[j*k+p] in exact int32.
// Both operands are stored with k contiguous ("NT-style"): a holds m
// signed-weight rows, b holds n unsigned activation rows. It is the
// micro-kernel seen as a matrix product — b is a row of n pixels k bytes
// apart — with a packed on every call, so it measures the kernel the
// quantized plan runs (which packs once, at compile time).
func GemmS8(m, n, k int, a []int8, b []uint8, c []int32) {
	if m == 0 || n == 0 {
		return
	}
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("tensor: GemmS8 operand too small")
	}
	// The kernel reads whole groups of four bytes: when k is not a multiple
	// of four a pixel's last group runs into the next pixel, against zero
	// weights. The last pixels, whose last group would leave b, are left to
	// a plain loop.
	k4 := (k + 3) / 4
	vec := 0
	if k > 0 && n*k >= 4*k4 {
		vec = (n*k-4*k4)/k + 1
	}
	if vec > 0 {
		buf := getS8Buf(S8PackedLen(m, k))
		PackS8(buf.w, a, m, k)
		gemmS8Pixels(vec, m, n, k, buf.w, buf.acc, b, c)
		putS8Buf(buf)
	}
	for j := vec; j < n; j++ {
		for i := 0; i < m; i++ {
			var s int32
			for p, v := range a[i*k : i*k+k] {
				s += int32(v) * int32(b[j*k+p])
			}
			c[i*n+j] = s
		}
	}
}

// gemmS8Pixels computes the first pix columns of c from the packed weights
// w, gemmS8Pix pixels at a time through acc.
func gemmS8Pixels(pix, m, n, k int, w []int8, acc []int32, b []uint8, c []int32) {
	k4 := (k + 3) / 4
	for j0 := 0; j0 < pix; j0 += gemmS8Pix {
		np := min(gemmS8Pix, pix-j0)
		blk := acc[:np*S8Lanes]
		for i0 := 0; i0 < m; i0 += S8Lanes {
			ConvS8(blk, b[j0*k:], w[i0/S8Lanes*k4*64:], 1, k4, 0, k)
			for l := 0; l < min(S8Lanes, m-i0); l++ {
				row := c[(i0+l)*n+j0 : (i0+l)*n+j0+np]
				for p := range row {
					row[p] = blk[p*S8Lanes+l]
				}
			}
		}
	}
}

// s8Buf is GemmS8's scratch: the packed weights and a block of
// accumulators. Like the float GEMM's pack buffers (gemm.go) it comes from
// a free list, not a sync.Pool, whose contents do not survive a GC: a
// warmed call allocates nothing.
type s8Buf struct {
	w   []int8
	acc []int32
}

var (
	s8BufMu   sync.Mutex
	s8BufFree []*s8Buf
)

func getS8Buf(packed int) *s8Buf {
	s8BufMu.Lock()
	for i := len(s8BufFree) - 1; i >= 0; i-- {
		if buf := s8BufFree[i]; cap(buf.w) >= packed {
			s8BufFree[i] = s8BufFree[len(s8BufFree)-1]
			s8BufFree = s8BufFree[:len(s8BufFree)-1]
			s8BufMu.Unlock()
			buf.w = buf.w[:packed]
			return buf
		}
	}
	s8BufMu.Unlock()
	return &s8Buf{w: make([]int8, packed), acc: make([]int32, gemmS8Pix*S8Lanes)}
}

func putS8Buf(buf *s8Buf) {
	s8BufMu.Lock()
	if len(s8BufFree) < 16 {
		s8BufFree = append(s8BufFree, buf)
	}
	s8BufMu.Unlock()
}
