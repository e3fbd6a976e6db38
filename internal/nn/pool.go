package nn

import (
	"fmt"
	"math"

	"deep15pf/internal/tensor"
)

// MaxPool2D is max pooling with a square kernel. The paper's HEP network
// uses 2×2 kernels with stride 2 after the first four convolutions.
type MaxPool2D struct {
	LayerName string
	K, Stride int
}

// NewMaxPool2D constructs a max-pooling layer.
func NewMaxPool2D(name string, k, stride int) *MaxPool2D {
	return &MaxPool2D{LayerName: name, K: k, Stride: stride}
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return p.LayerName }

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// OutShape implements Layer.
func (p *MaxPool2D) OutShape(in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: %s expects [C,H,W], got %v", p.LayerName, in))
	}
	return []int{in[0], tensor.ConvOut(in[1], p.K, p.Stride, 0), tensor.ConvOut(in[2], p.K, p.Stride, 0)}
}

// Reserve implements Layer.
func (p *MaxPool2D) Reserve(st *PlanState, a *tensor.Arena, n int, in []int, train bool) {
	if train {
		out := p.OutShape(in)
		if need := n * out[0] * out[1] * out[2]; cap(st.Argmax) < need {
			st.Argmax = make([]int32, need)
		}
	}
}

// ForwardInto implements Layer. The winning value is the same in
// both modes (same comparison order); eval mode drops the argmax record,
// and Backward panics until the next train-mode pass.
func (p *MaxPool2D) ForwardInto(st *PlanState, y, x *tensor.Tensor, train bool) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := tensor.ConvOut(h, p.K, p.Stride, 0)
	ow := tensor.ConvOut(w, p.K, p.Stride, 0)
	st.InShape = st.InShape[:0]
	st.Argmax = st.Argmax[:0]
	if train {
		if cap(st.Argmax) < y.Len() {
			st.Argmax = make([]int32, y.Len())
		}
		st.Argmax = st.Argmax[:y.Len()]
		st.InShape = append(st.InShape, n, c, h, w)
	}
	planes := n * c
	if st.Inline || tensor.SerialFor(planes) {
		p.poolPlanes(0, planes, x.Data, y.Data, st.Argmax, h, w, oh, ow)
		return
	}
	xd, yd, amx := x.Data, y.Data, st.Argmax
	tensor.ParallelFor(planes, func(lo, hi int) {
		p.poolPlanes(lo, hi, xd, yd, amx, h, w, oh, ow)
	})
}

// poolPlanes pools planes [lo,hi), recording argmax winners unless argmax
// is empty. The paper's geometry — 2×2 windows at stride 2 over even-sized
// planes — runs the row-pair vector kernels; every other geometry runs the
// generic window scan, which defines the result both must give.
func (p *MaxPool2D) poolPlanes(lo, hi int, xd, yd []float32, argmax []int32, h, w, oh, ow int) {
	fast := p.K == 2 && p.Stride == 2 && h%2 == 0 && w%2 == 0
	for pl := lo; pl < hi; pl++ {
		src := xd[pl*h*w : (pl+1)*h*w]
		dst := yd[pl*oh*ow : (pl+1)*oh*ow]
		var amx []int32
		if len(argmax) > 0 {
			amx = argmax[pl*oh*ow : (pl+1)*oh*ow]
		}
		if fast {
			for oy := 0; oy < oh; oy++ {
				r0 := src[2*oy*w : (2*oy+1)*w]
				r1 := src[(2*oy+1)*w : (2*oy+2)*w]
				if amx == nil {
					tensor.MaxPool2x2(dst[oy*ow:(oy+1)*ow], r0, r1)
				} else {
					tensor.MaxPool2x2Argmax(dst[oy*ow:(oy+1)*ow], amx[oy*ow:(oy+1)*ow], r0, r1, 2*oy*w, w)
				}
			}
			continue
		}
		di := 0
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(math.Inf(-1))
				bestIdx := int32(0)
				for ky := 0; ky < p.K; ky++ {
					iy := oy*p.Stride + ky
					if iy >= h {
						continue
					}
					for kx := 0; kx < p.K; kx++ {
						ix := ox*p.Stride + kx
						if ix >= w {
							continue
						}
						v := src[iy*w+ix]
						if v > best {
							best = v
							bestIdx = int32(iy*w + ix)
						}
					}
				}
				dst[di] = best
				if amx != nil {
					amx[di] = bestIdx
				}
				di++
			}
		}
	}
}

// BackwardInto implements Layer: routes gradients to the argmax positions.
func (p *MaxPool2D) BackwardInto(st *PlanState, dx, dout *tensor.Tensor) {
	if len(st.InShape) == 0 {
		panic("nn: " + p.LayerName + " Backward before Forward")
	}
	if dx == nil {
		return
	}
	n, c, h, w := st.InShape[0], st.InShape[1], st.InShape[2], st.InShape[3]
	oh, ow := dout.Shape[2], dout.Shape[3]
	clear(dx.Data)
	planes := n * c
	for pl := 0; pl < planes; pl++ {
		dsrc := dout.Data[pl*oh*ow : (pl+1)*oh*ow]
		ddst := dx.Data[pl*h*w : (pl+1)*h*w]
		amx := st.Argmax[pl*oh*ow : (pl+1)*oh*ow]
		for i, g := range dsrc {
			ddst[amx[i]] += g
		}
	}
}

// FLOPs implements Layer. Pooling does comparisons, not flops; we count one
// op per input tap like SDE counts masked max instructions.
func (p *MaxPool2D) FLOPs(in []int) FlopCount {
	out := p.OutShape(in)
	ops := int64(out[0]*out[1]*out[2]) * int64(p.K*p.K)
	return FlopCount{Fwd: ops, Bwd: ops / 2, FwdExecuted: ops, BwdExecuted: ops / 2}
}

// GlobalAvgPool averages each channel plane to a single value, producing a
// [N, C] activation. The paper's HEP network uses it after the fifth
// convolution specifically to avoid large dense layers that would be
// expensive to synchronise (§I contribution list).
type GlobalAvgPool struct {
	LayerName string
}

// NewGlobalAvgPool constructs a global-average-pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{LayerName: name} }

// Name implements Layer.
func (p *GlobalAvgPool) Name() string { return p.LayerName }

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// OutShape implements Layer.
func (p *GlobalAvgPool) OutShape(in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: %s expects [C,H,W], got %v", p.LayerName, in))
	}
	return []int{in[0]}
}

// Reserve implements Layer.
func (p *GlobalAvgPool) Reserve(st *PlanState, a *tensor.Arena, n int, in []int, train bool) {}

// ForwardInto implements Layer.
func (p *GlobalAvgPool) ForwardInto(st *PlanState, y, x *tensor.Tensor, train bool) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	inv := 1 / float32(h*w)
	for pl := 0; pl < n*c; pl++ {
		src := x.Data[pl*h*w : (pl+1)*h*w]
		var sum float32
		for _, v := range src {
			sum += v
		}
		y.Data[pl] = sum * inv
	}
	st.InShape = append(st.InShape[:0], n, c, h, w)
}

// BackwardInto implements Layer: spreads each gradient uniformly over the
// plane.
func (p *GlobalAvgPool) BackwardInto(st *PlanState, dx, dout *tensor.Tensor) {
	if dx == nil {
		return
	}
	n, c, h, w := st.InShape[0], st.InShape[1], st.InShape[2], st.InShape[3]
	inv := 1 / float32(h*w)
	for pl := 0; pl < n*c; pl++ {
		g := dout.Data[pl] * inv
		dst := dx.Data[pl*h*w : (pl+1)*h*w]
		for i := range dst {
			dst[i] = g
		}
	}
}

// FLOPs implements Layer.
func (p *GlobalAvgPool) FLOPs(in []int) FlopCount {
	ops := int64(in[0] * in[1] * in[2])
	return FlopCount{Fwd: ops, Bwd: ops, FwdExecuted: ops, BwdExecuted: ops}
}
