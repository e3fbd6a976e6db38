package tensor

// The lowering the direct convolutions replaced, kept as the tests'
// reference and the benchmarks' baseline: im2col, whose patch matrix
// turns a convolution into a GEMM, and col2im, its adjoint scatter. Their
// strided row copies and adds run the Go loops here; the assembly bodies
// they had are gone with them.

// scatterAddRows is col2im's row add: dst[p*dstPlane+r*dstPitch+i*step]
// += src[p*srcPlane+r*srcPitch+i].
func scatterAddRows(dst, src []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n, step int) {
	for p := 0; p < planes; p++ {
		for r := 0; r < rows; r++ {
			d := dst[p*dstPlane+r*dstPitch:]
			for i, v := range src[p*srcPlane+r*srcPitch:][:n] {
				d[i*step] += v
			}
		}
	}
}

// lowering validates the operands of one im2col or col2im — op names the
// caller in the panic — and returns the output plane's size. Everything is
// checked before any kernel runs: an assembly body reads and writes what the
// geometry says, not what the slices hold.
func lowering(op string, img []float32, c, h, w, kh, kw, stride, pad int, col []float32, rowStride, colOff int) (oh, ow int) {
	if c < 0 || h < 1 || w < 1 || kh < 1 || kw < 1 || stride < 1 || pad < 0 || kh > h+2*pad || kw > w+2*pad {
		panic("tensor: " + op + " geometry invalid")
	}
	oh, ow = ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	cols := oh * ow
	if colOff < 0 || colOff+cols > rowStride {
		panic("tensor: " + op + " columns outside the matrix row")
	}
	if len(img) < c*h*w || len(col) < (c*kh*kw-1)*rowStride+colOff+cols {
		panic("tensor: " + op + " operand too small")
	}
	return oh, ow
}

// groupFloats bounds the channel planes one row-kernel call covers. A call
// per (channel, tap) plane spends more on call set-up than on the 16 floats
// of a 4×4 plane, so a tap is gathered, or added, for a group of channels
// at once; the group is revisited once per tap, so it is kept to what stays
// in L1 (16 KiB) — 64 of the 8×8 planes, 4 of the 32×32 ones, and one
// channel at a time from 64×64 up, which is the plain (ch, ky, kx) order.
const groupFloats = 4096

// Im2colInto expands one C×H×W image (img, len C*H*W) into a slice of a
// column matrix: row r of the (C·KH·KW)×(OH·OW) patch matrix lands at
// col[r*rowStride+colOff : ...+OH*OW], out-of-bounds taps zero. Lowering
// sample s of a chunk at colOff s·OH·OW builds one wide
// (C·KH·KW)×(N·OH·OW) matrix, so the chunk multiplies in a single GEMM
// instead of one small GEMM per sample.
//
// A tap's valid outputs are one window [oyLo,oyHi)×[oxLo,oxHi) of the output
// plane, clipped once, and the window is filled with no bounds test per
// element. At stride 1 (every HEP conv) the input columns advance with the
// output columns, so each output row is one contiguous copy; when the
// output is as wide as the input ("same" padding, again every HEP conv)
// consecutive rows are contiguous on both sides, so the whole tap is one
// copy of the plane at a fixed shift — border columns pick up the
// neighbouring row's edge and are then zeroed — instead of a copy per
// 4-to-32-float row. At a larger stride (the climate encoder, and the
// lowering under every deconvolution) the window is one strided-gather
// kernel call for a whole group of channels, over planes cleared first if
// the window leaves a border.
func Im2colInto(img []float32, c, h, w, kh, kw, stride, pad int, col []float32, rowStride, colOff int) {
	oh, ow := lowering("Im2col", img, c, h, w, kh, kw, stride, pad, col, rowStride, colOff)
	group := 1
	if stride > 1 {
		group = max(groupFloats/(h*w), 1)
	}
	chRows := kh * kw * rowStride // from one channel's row of a tap to the next channel's
	for ch0 := 0; ch0 < c; ch0 += group {
		planes := min(group, c-ch0)
		for ky := 0; ky < kh; ky++ {
			oyLo, oyHi := tapRange(pad, ky, h, oh, stride)
			for kx := 0; kx < kw; kx++ {
				oxLo, oxHi := tapRange(pad, kx, w, ow, stride)
				at := ch0*chRows + (ky*kw+kx)*rowStride + colOff
				// img[off+(oy*w+ox)*stride] is the tap's input for output
				// (oy, ox); off alone may point before the plane.
				off := ch0*h*w + (ky-pad)*w + kx - pad
				rows, n := max(oyHi-oyLo, 0), max(oxHi-oxLo, 0)
				if stride == 1 {
					if rows*n == 0 {
						clear(col[at : at+oh*ow])
					} else {
						copyTap(col[at:at+oh*ow], img, off, w, ow, oyLo, oyHi, oxLo, oxHi)
					}
					continue
				}
				if rows*n != oh*ow {
					for p := 0; p < planes; p++ {
						clear(col[at+p*chRows : at+p*chRows+oh*ow])
					}
				}
				if rows*n != 0 {
					splitRowsGeneric(col[at+oyLo*ow+oxLo:], img[off+(oyLo*w+oxLo)*stride:], planes, chRows, h*w, rows, ow, stride*w, n, stride)
				}
			}
		}
	}
}

// copyTap fills one tap's output plane dst at stride 1: output (oy, ox) of
// the window [oyLo,oyHi)×[oxLo,oxHi) is img[off+oy*w+ox], the rest zero.
func copyTap(dst, img []float32, off, w, ow, oyLo, oyHi, oxLo, oxHi int) {
	if ow == w {
		a, b := oyLo*ow+oxLo, (oyHi-1)*ow+oxHi
		clear(dst[:a])
		copy(dst[a:b], img[off+a:off+b])
		clear(dst[b:])
		if oxLo == 0 && oxHi == ow {
			return
		}
		// A plain store loop: the run is pad floats at most, shorter than
		// a call to the clear routine.
		for oy := oyLo + 1; oy < oyHi; oy++ {
			for i := oy*ow - (ow - oxHi); i < oy*ow+oxLo; i++ {
				dst[i] = 0
			}
		}
		return
	}
	clear(dst[:oyLo*ow])
	for oy := oyLo; oy < oyHi; oy++ {
		drow := dst[oy*ow : (oy+1)*ow]
		clear(drow[:oxLo])
		copy(drow[oxLo:oxHi], img[off+oy*w+oxLo:off+oy*w+oxHi])
		clear(drow[oxHi:])
	}
	clear(dst[oyHi*ow:])
}

// Col2imFrom is Im2colInto's adjoint: it scatters the patch matrix back into
// the C×H×W image img, *accumulating* overlapping contributions (img must be
// zeroed by the caller if a fresh result is wanted). Row r of the patch
// matrix is col[r*rowStride+colOff : ...+OH*OW], so one sample's columns
// scatter straight out of a chunk-wide GEMM product — the convolution's data
// gradient and, per the paper's §III-C, the deconvolution's forward pass.
//
// Every image element receives its contributions in ascending tap order
// (ky, kx) — its channel's rows of the patch matrix, top to bottom — and
// that order is all the sum's bits depend on: one tap touches an element at
// most once, so the order within a tap is free, and so is the order of the
// channels, which share no element. A tap's whole contribution is its
// clipped oh×ow window added into the plane at a fixed shift, stride floats
// apart: one row-add kernel call per group of channels. The kernel adds
// into what is there, so an element the caller cleared to +0 stays +0 under
// −0 contributions.
func Col2imFrom(col []float32, rowStride, colOff, c, h, w, kh, kw, stride, pad int, img []float32) {
	oh, ow := lowering("Col2im", img, c, h, w, kh, kw, stride, pad, col, rowStride, colOff)
	group := max(groupFloats/(h*w), 1)
	chRows := kh * kw * rowStride
	for ch0 := 0; ch0 < c; ch0 += group {
		planes := min(group, c-ch0)
		for ky := 0; ky < kh; ky++ {
			oyLo, oyHi := tapRange(pad, ky, h, oh, stride)
			for kx := 0; kx < kw; kx++ {
				oxLo, oxHi := tapRange(pad, kx, w, ow, stride)
				if oyLo >= oyHi || oxLo >= oxHi {
					continue
				}
				src := col[ch0*chRows+(ky*kw+kx)*rowStride+colOff+oyLo*ow+oxLo:]
				dst := img[ch0*h*w+(oyLo*stride-pad+ky)*w+oxLo*stride-pad+kx:]
				scatterAddRows(dst, src, planes, h*w, chRows, oyHi-oyLo, stride*w, ow, oxHi-oxLo, stride)
			}
		}
	}
}
