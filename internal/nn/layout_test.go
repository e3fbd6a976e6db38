package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"deep15pf/internal/tensor"
)

// peakLive is the lower bound of a layout: the most floats its buffers
// hold at any one time of the plan's clock.
func peakLive(regions []region) int {
	peak := 0
	for _, r := range regions { // the most is live where some span starts
		live := 0
		for _, o := range regions {
			if o.first <= r.first && r.first <= o.last {
				live += o.n
			}
		}
		peak = max(peak, live)
	}
	return peak
}

// footprint is every byte a compiled plan sized for itself: its slab and
// the buffers beside it (a training step's pool winners and a direct
// step's tap and column tables; an int8 plan's images, accumulators and
// packed weights), its lanes' too when it tiles.
func footprint(p lanePlan) int {
	n := 0
	tables := func(h *haloConv) int { return 8*len(h.off) + 4*len(h.idx) + 4*len(h.argmax) }
	switch pl := p.(type) {
	case *Plan:
		n += 4 * len(pl.slab)
		for i := range pl.steps {
			s := &pl.steps[i]
			if s.halo != nil {
				n += tables(s.halo)
			}
			if s.deconv != nil {
				n += tables(s.deconv.adj)
			}
			n += 4 * cap(s.st.Argmax)
		}
		if pl.tiles != nil {
			n += 4 * len(pl.tiles.out)
			for _, l := range pl.tiles.lanes {
				n += footprint(l.plan)
			}
		}
	case *QuantPlan:
		n += 4 * len(pl.slab)
		for i := range pl.steps {
			if q := pl.steps[i].q; q != nil {
				n += len(q.xq) + 4*len(q.acc) + len(q.wq) + 4*len(q.wscale) + len(q.blk)*int(unsafe.Sizeof(q.blk[0]))
			}
		}
	}
	return n
}

// compiledBytes returns the bytes the plan compile returns holds on the
// heap, by the runtime's count of live bytes — the least of three
// compiles, as another goroutine's allocation can only add to one — and
// the last plan.
func compiledBytes[P any](compile func() P) (int, P) {
	var before, after runtime.MemStats
	var p P
	held := math.MaxInt
	for range 3 {
		p = *new(P) // the last compile's plan is garbage before the count
		runtime.GC()
		runtime.GC() // and what the first left to a pool's victim cache
		runtime.ReadMemStats(&before)
		p = compile()
		runtime.GC()
		runtime.ReadMemStats(&after)
		held = min(held, int(after.HeapAlloc)-int(before.HeapAlloc))
	}
	return held, p
}

// climateBenchParts are the nn networks climate.TrainPlan compiles for the
// net train_climate_hybrid measures — a stride-2 k3 encoder over a 16 ×
// 32 × 32 field, its three score heads on the 4 × 4 feature grid and the
// k4/s2/p1 deconvolutional decoder — built here because climate imports
// nn.
func climateBenchParts(rng *tensor.RNG) []*Network {
	enc := NewNetwork("climate-bench-encoder", 16, 32, 32)
	inC := 16
	for i, c := range []struct{ outC, stride int }{{32, 2}, {64, 2}, {96, 2}, {128, 1}} {
		enc.Add(NewConv2D(fmt.Sprintf("enc_conv%d", i+1), inC, c.outC, 3, c.stride, 1, rng), NewReLU(fmt.Sprintf("enc_relu%d", i+1)))
		inC = c.outC
	}
	parts := []*Network{enc}
	for _, h := range []struct {
		name string
		outC int
	}{{"conf", 1}, {"class", 3}, {"box", 4}} {
		parts = append(parts, NewNetwork("climate-bench-"+h.name, 128, 4, 4).Add(NewConv2D("head_"+h.name, 128, h.outC, 3, 1, 1, rng)))
	}
	dec := NewNetwork("climate-bench-decoder", 128, 4, 4)
	dInC := 128
	for i, outC := range []int{64, 32, 16} {
		dec.Add(NewDeconv2D(fmt.Sprintf("dec_deconv%d", i+1), dInC, outC, 4, 2, 1, rng))
		if i < 2 {
			dec.Add(NewReLU(fmt.Sprintf("dec_relu%d", i+1)))
		}
		dInC = outC
	}
	return append(parts, dec)
}

// TestPlanHoldsItsLayout pins a compiled plan's memory to its layout: what
// it holds on the heap is within 2% of what it sized — the slab the
// layout placed and the buffers and tables beside it — and the slab is
// within 2% of the most floats live at once, for hep-small's training plan
// at batch 16, its inference plan at 32 and its int8 plan at 32, and for
// the training plans of the benchmark's climate net at batch 4.
func TestPlanHoldsItsLayout(t *testing.T) {
	net := hepSmallNet(tensor.NewRNG(3))
	calib := CalibrateActivations(net, randBatch(tensor.NewRNG(4), 8, net.InShape))
	climate := climateBenchParts(tensor.NewRNG(5))
	for _, c := range []struct {
		name    string
		compile func(a *tensor.Arena) []lanePlan
	}{
		{"hep-small train b16", func(a *tensor.Arena) []lanePlan { return []lanePlan{Compile(net, 16, true, a)} }},
		{"hep-small infer b32", func(a *tensor.Arena) []lanePlan { return []lanePlan{Compile(net, InferTile, false, a)} }},
		{"hep-small int8 b32", func(a *tensor.Arena) []lanePlan { return []lanePlan{CompileQuantized(net, InferTile, calib, a)} }},
		{"climate-bench train b4", func(a *tensor.Arena) []lanePlan {
			var ps []lanePlan
			for _, part := range climate {
				ps = append(ps, Compile(part, 4, true, a))
			}
			return ps
		}},
	} {
		var arena *tensor.Arena
		held, ps := compiledBytes(func() []lanePlan { arena = tensor.NewArena(); return c.compile(arena) })
		size, slabs, asked := 0, 0, 0
		for _, p := range ps {
			size += footprint(p)
			var slab []float32
			var regions []region
			switch pl := p.(type) {
			case *Plan:
				slab, regions = pl.slab, pl.regions
			case *QuantPlan:
				slab, regions = pl.slab, pl.regions
			}
			if peak := peakLive(regions); float64(len(slab)) > 1.02*float64(peak) {
				t.Errorf("%s: a slab is %d floats for at most %d live at once", c.name, len(slab), peak)
			}
			slabs += len(slab)
			for _, r := range regions {
				asked += r.n
			}
		}
		t.Logf("%s: the plans hold %d bytes, sized %d, slabs %d floats for buffers of %d", c.name, held, size, slabs, asked)
		if float64(held) > 1.02*float64(size) {
			t.Errorf("%s: the plans hold %d bytes and sized %d (%.3f×)", c.name, held, size, float64(held)/float64(size))
		}
		if got := arena.Stats().TotalFloats; got != int64(slabs) {
			t.Errorf("%s: the arena handed out %d floats, the slabs are %d", c.name, got, slabs)
		}
		runtime.KeepAlive(ps)
	}
}

// TestLayoutSharesDisjointSpans: buffers whose spans meet never overlap in
// the slab, and a buffer whose span meets none of the larger ones reuses
// their bytes.
func TestLayoutSharesDisjointSpans(t *testing.T) {
	var a, b, c, d, e []float32
	var l layout
	l.add(&a, 100, 0, 1)
	l.add(&b, 80, 1, 2)
	l.add(&c, 60, 2, 3) // meets b only: below it, in a's bytes
	l.add(&d, 10, 0, 3) // meets everything
	l.pin(&e, 5)
	slab := l.place(tensor.NewArena())
	if len(slab) != 100+80+10+5 {
		t.Fatalf("slab %d floats, want %d", len(slab), 100+80+10+5)
	}
	at := func(s []float32) int {
		return int(uintptr(unsafe.Pointer(&s[0]))-uintptr(unsafe.Pointer(&slab[0]))) / 4
	}
	for i, r := range l.bufs {
		for j, o := range l.bufs[:i] {
			if r.meets(&o) && r.off < o.off+o.n && o.off < r.off+r.n {
				t.Fatalf("buffers %d and %d meet at %v and %v but overlap at %d+%d and %d+%d", i, j, [2]int{r.first, r.last}, [2]int{o.first, o.last}, r.off, r.n, o.off, o.n)
			}
		}
		if got := at(*r.dst); got != r.off || len(*r.dst) != r.n || cap(*r.dst) != r.n {
			t.Fatalf("buffer %d placed at %d (len %d cap %d), its region says %d+%d", i, got, len(*r.dst), cap(*r.dst), r.off, r.n)
		}
	}
	if at(c) != 0 {
		t.Fatalf("c is at %d, want 0: its span misses a's", at(c))
	}
}

// poisonShared fills every float of p's slab that two buffers may share —
// every region that is not pinned — with a NaN no kernel makes, after the
// plan (and, for a tiled plan, each lane minted so far) has compiled. A
// step that reads a shared byte before writing it, or a buffer whose span
// is shorter than its use, then carries the NaN into a result the plan
// fuzzers compare bit for bit.
func poisonShared(p lanePlan) {
	nan := math.Float32frombits(0x7fc0dead)
	var slab []float32
	var regions []region
	var tiles *tiler
	switch pl := p.(type) {
	case *Plan:
		slab, regions, tiles = pl.slab, pl.regions, pl.tiles
	case *QuantPlan:
		slab, regions, tiles = pl.slab, pl.regions, pl.tiles
	}
	for _, r := range regions {
		if !r.pinned() {
			for i := range slab[r.off : r.off+r.n] {
				slab[r.off+i] = nan
			}
		}
	}
	if tiles != nil {
		for _, l := range tiles.lanes {
			poisonShared(l.plan)
		}
	}
}
