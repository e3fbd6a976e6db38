package tensor

// im2col / col2im lowering. A convolution over a C×H×W image with F filters
// of size KH×KW becomes a (F)×(C·KH·KW) by (C·KH·KW)×(OH·OW) GEMM. col2im is
// the adjoint scatter used for the data gradient — and, per the paper's
// §III-C deconvolution trick, for the *forward* pass of deconvolution.

// ConvOut returns the output spatial size for input size in, kernel k,
// stride s and symmetric padding p.
func ConvOut(in, k, s, p int) int {
	return (in+2*p-k)/s + 1
}

// tapRange returns the output positions [lo,hi) along one axis whose input
// position o-pad+k lies inside [0,in), for kernel offset k at stride 1.
func tapRange(pad, k, in, out int) (lo, hi int) {
	return max(pad-k, 0), min(in+pad-k, out)
}

// Im2col expands one C×H×W image (img, len C*H*W) into the column matrix
// col with shape (C*KH*KW)×(OH*OW), row-major. Out-of-bounds taps are zero.
func Im2col(img []float32, c, h, w, kh, kw, stride, pad int, col []float32) {
	cols := ConvOut(h, kh, stride, pad) * ConvOut(w, kw, stride, pad)
	if len(col) < c*kh*kw*cols {
		panic("tensor: Im2col output too small")
	}
	Im2colInto(img, c, h, w, kh, kw, stride, pad, col, cols, 0)
}

// Im2colInto is Im2col writing into a slice of a larger matrix: row r of
// the patch matrix lands at col[r*rowStride+colOff : ...+OH*OW]. The
// batched inference path uses it to lower every sample of a batch into one
// wide (C·KH·KW)×(N·OH·OW) matrix — sample s at colOff s·OH·OW — so a
// whole batch multiplies in a single GEMM instead of one small GEMM per
// sample.
//
// Stride-1 lowerings (every HEP conv) take a fast path: for a fixed kernel
// tap the input columns advance with the output columns, so each output row
// is one contiguous copy between zero-padding runs, replacing the
// tap-by-tap bounds arithmetic of the general case. When the output is as
// wide as the input ("same" padding, again every HEP conv) consecutive
// rows are contiguous on both sides, so the whole tap is one copy of the
// plane at a fixed shift — border columns pick up the neighbouring row's
// edge and are then zeroed — instead of a copy per 4-to-32-float row.
func Im2colInto(img []float32, c, h, w, kh, kw, stride, pad int, col []float32, rowStride, colOff int) {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	row := 0
	for ch := 0; ch < c; ch++ {
		chOff := ch * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				dst := col[row*rowStride+colOff : row*rowStride+colOff+oh*ow]
				row++
				if stride == 1 {
					oyLo, oyHi := tapRange(pad, ky, h, oh)
					oxLo, oxHi := tapRange(pad, kx, w, ow)
					if oyLo >= oyHi || oxLo >= oxHi {
						clear(dst)
						continue
					}
					// img[off+oy*w+ox] is the tap's input for output (oy, ox);
					// off alone may point before the plane.
					off := chOff + (ky-pad)*w + kx - pad
					if ow == w {
						a, b := oyLo*ow+oxLo, (oyHi-1)*ow+oxHi
						clear(dst[:a])
						copy(dst[a:b], img[off+a:off+b])
						clear(dst[b:])
						// A plain store loop: the run is pad floats at most,
						// shorter than a call to the clear routine.
						for oy := oyLo + 1; oy < oyHi; oy++ {
							for i := oy*ow - (ow - oxHi); i < oy*ow+oxLo; i++ {
								dst[i] = 0
							}
						}
						continue
					}
					clear(dst[:oyLo*ow])
					for oy := oyLo; oy < oyHi; oy++ {
						drow := dst[oy*ow : (oy+1)*ow]
						clear(drow[:oxLo])
						copy(drow[oxLo:oxHi], img[off+oy*w+oxLo:off+oy*w+oxHi])
						clear(drow[oxHi:])
					}
					clear(dst[oyHi*ow:])
					continue
				}
				di := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							dst[di] = 0
							di++
						}
						continue
					}
					rowOff := chOff + iy*w
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride - pad + kx
						if ix < 0 || ix >= w {
							dst[di] = 0
						} else {
							dst[di] = img[rowOff+ix]
						}
						di++
					}
				}
			}
		}
	}
}

// Col2im scatters the column matrix col (shape (C*KH*KW)×(OH*OW)) back into
// the C×H×W image img, *accumulating* overlapping contributions. img must be
// zeroed by the caller if a fresh result is wanted.
func Col2im(col []float32, c, h, w, kh, kw, stride, pad int, img []float32) {
	Col2imFrom(col, ConvOut(h, kh, stride, pad)*ConvOut(w, kw, stride, pad), 0, c, h, w, kh, kw, stride, pad, img)
}

// Col2imFrom is Col2im reading out of a slice of a larger matrix, the
// mirror of Im2colInto: row r of the patch matrix is
// col[r*rowStride+colOff : ...+OH*OW], so one sample's columns scatter
// straight out of a batch-wide data-gradient GEMM.
//
// Every image element receives its contributions in ascending tap order
// (ch, ky, kx), whichever path runs — at stride 1 each tap touches an
// element at most once — and that order is all the sum's bits depend on.
// At stride 1 a tap's whole contribution is a clipped oh×ow window of the
// plane added at a fixed shift, which is one strip-add kernel call.
func Col2imFrom(col []float32, rowStride, colOff, c, h, w, kh, kw, stride, pad int, img []float32) {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	cols := oh * ow
	if len(img) < c*h*w || len(col) < (c*kh*kw-1)*rowStride+colOff+cols {
		panic("tensor: Col2im operand too small")
	}
	row := 0
	for ch := 0; ch < c; ch++ {
		chOff := ch * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				src := col[row*rowStride+colOff : row*rowStride+colOff+cols]
				row++
				if stride == 1 {
					oyLo, oyHi := tapRange(pad, ky, h, oh)
					oxLo, oxHi := tapRange(pad, kx, w, ow)
					if oyLo < oyHi && oxLo < oxHi {
						dst := img[chOff+(oyLo-pad+ky)*w+oxLo-pad+kx : chOff+h*w]
						addRows(dst, src[oyLo*ow+oxLo:], oyHi-oyLo, w, ow, oxHi-oxLo)
					}
					continue
				}
				si := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						si += ow
						continue
					}
					rowOff := chOff + iy*w
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride - pad + kx
						if ix >= 0 && ix < w {
							img[rowOff+ix] += src[si]
						}
						si++
					}
				}
			}
		}
	}
}
