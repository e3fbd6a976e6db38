package serve

import (
	"sync"
	"testing"

	"deep15pf/internal/tensor"
)

// TestInferSharedMatchesInfer pins the SharedInferer contract: the
// copy-free output must be bitwise the copied one, on both datapaths.
func TestInferSharedMatchesInfer(t *testing.T) {
	net, ds := trainTinyHEP(t, 3)
	path := saveTinyHEP(t, net)
	r := NewRegistry()
	RegisterHEP(r, "tiny", tinyHEP())
	for _, prec := range []Precision{Float32, Int8} {
		lm, err := r.Load("tiny", path, prec)
		if err != nil {
			t.Fatal(err)
		}
		if prec == Int8 {
			x, _ := ds.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
			if err := lm.Calibrate(x); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := lm.NewReplica()
		if err != nil {
			t.Fatal(err)
		}
		sh, ok := rep.(SharedInferer)
		if !ok {
			t.Fatalf("%v HEP replica does not implement SharedInferer", prec)
		}
		x := tensor.New(append([]int{4}, rep.InShape()...)...)
		tensor.NewRNG(11).FillNorm(x, 0, 1)
		want := rep.Infer(x)
		got := sh.InferShared(x)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%v: InferShared diverges from Infer at %d: %v vs %v", prec, i, got.Data[i], want.Data[i])
			}
		}
		// The shared output is plan-owned: a second forward overwrites it.
		before := got.Data[0]
		x.Data[0] += 3
		sh.InferShared(x)
		_ = before // overwritten or not, the pointer identity is what matters
		if &got.Data[0] != &sh.InferShared(x).Data[0] {
			t.Fatalf("%v: InferShared copied its output — the point is not to", prec)
		}
	}
}

// TestInferSharedZeroAlloc pins the bulk hot path's allocation contract:
// a warmed InferShared allocates nothing at all — not even the response
// copy the online path pays.
func TestInferSharedZeroAlloc(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	net, _ := trainTinyHEP(t, 3)
	path := saveTinyHEP(t, net)
	r := NewRegistry()
	RegisterHEP(r, "tiny", tinyHEP())
	lm, err := r.Load("tiny", path, Float32)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lm.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	sh := rep.(SharedInferer)
	x := tensor.New(append([]int{8}, rep.InShape()...)...)
	tensor.NewRNG(13).FillNorm(x, 0, 1)
	sh.InferShared(x) // warm: compiles the batch-8 plan
	if allocs := testing.AllocsPerRun(50, func() { sh.InferShared(x) }); allocs != 0 {
		t.Fatalf("warmed InferShared allocates %v/op, want 0", allocs)
	}
}

// TestInferSharedZeroAllocAboveTile is the same contract at a batch the
// plans run as tiles (nn's inferTile is 32), on both precisions: on one
// worker the tiles run on the caller and nothing is allocated.
func TestInferSharedZeroAllocAboveTile(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	net, ds := trainTinyHEP(t, 3)
	path := saveTinyHEP(t, net)
	r := NewRegistry()
	RegisterHEP(r, "tiny", tinyHEP())
	for _, prec := range []Precision{Float32, Int8} {
		lm, err := r.Load("tiny", path, prec)
		if err != nil {
			t.Fatal(err)
		}
		if prec == Int8 {
			x, _ := ds.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
			if err := lm.Calibrate(x); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := lm.NewReplica()
		if err != nil {
			t.Fatal(err)
		}
		sh := rep.(SharedInferer)
		x := tensor.New(append([]int{83}, rep.InShape()...)...)
		tensor.NewRNG(13).FillNorm(x, 0, 1)
		sh.InferShared(x) // warm: compiles the bucket-128 plan and its lane
		if allocs := testing.AllocsPerRun(20, func() { sh.InferShared(x) }); allocs != 0 {
			t.Fatalf("%v: warmed tiled InferShared allocates %v/op, want 0", prec, allocs)
		}
	}
}

// TestInferBatchBypassesBatcher drives whole batches through the bulk
// entry point and checks the answers equal per-sample Submit results —
// the two paths share the checkpoint, so any divergence is a dispatch bug.
func TestInferBatchBypassesBatcher(t *testing.T) {
	net, _ := trainTinyHEP(t, 3)
	path := saveTinyHEP(t, net)
	r := NewRegistry()
	RegisterHEP(r, "tiny", tinyHEP())
	lm, err := r.Load("tiny", path, Float32)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lm, Config{Workers: 2, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 6
	in := rangeProd(lm.InShape())
	x := tensor.New(append([]int{n}, lm.InShape()...)...)
	tensor.NewRNG(17).FillNorm(x, 0, 1)

	y, err := srv.InferBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	if y.Shape[0] != n {
		t.Fatalf("bulk output shape %v", y.Shape)
	}
	out := rangeProd(lm.OutShape())
	for s := 0; s < n; s++ {
		xi := tensor.New(lm.InShape()...)
		copy(xi.Data, x.Data[s*in:(s+1)*in])
		yi, err := srv.Submit(xi)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < out; j++ {
			if yi.Data[j] != y.Data[s*out+j] {
				t.Fatalf("sample %d logit %d: bulk %v vs online %v", s, j, y.Data[s*out+j], yi.Data[j])
			}
		}
	}

	// Shape policing.
	if _, err := srv.InferBatch(tensor.New(lm.InShape()...)); err == nil {
		t.Fatal("per-sample tensor accepted by the batch entry point")
	}
	bad := append([]int{2}, lm.InShape()...)
	bad[1]++
	if _, err := srv.InferBatch(tensor.New(bad...)); err == nil {
		t.Fatal("wrong trailing dims accepted")
	}
}

// TestInferBatchConcurrentAndClose exercises the bulk replica pool under
// concurrency (more callers than the worker cap, so some must block for a
// pooled replica) and pins the shutdown contract: Close waits for running
// bulk calls, later calls get ErrClosed.
func TestInferBatchConcurrentAndClose(t *testing.T) {
	net, _ := trainTinyHEP(t, 3)
	path := saveTinyHEP(t, net)
	r := NewRegistry()
	RegisterHEP(r, "tiny", tinyHEP())
	lm, err := r.Load("tiny", path, Float32)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lm, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := tensor.New(append([]int{5}, lm.InShape()...)...)
			tensor.NewRNG(seed).FillNorm(x, 0, 1)
			for i := 0; i < 10; i++ {
				if _, err := srv.InferBatch(x); err != nil {
					t.Errorf("InferBatch: %v", err)
					return
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	srv.Close()
	x := tensor.New(append([]int{2}, lm.InShape()...)...)
	if _, err := srv.InferBatch(x); err != ErrClosed {
		t.Fatalf("InferBatch after Close: %v, want ErrClosed", err)
	}
}

func rangeProd(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
