package comm

import (
	"math"
	"testing"

	"deep15pf/internal/tensor"
)

func randVec(seed uint64, n int) []float32 {
	rng := tensor.NewRNG(seed)
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.Norm())
	}
	return v
}

func TestFp32CodecIsIdentity(t *testing.T) {
	c, err := NewCodec("fp32", 0)
	if err != nil {
		t.Fatal(err)
	}
	src := randVec(1, ChunkElems+100)
	var w Wire
	c.Encode(&w, src)
	if got := w.Bytes(); got != 4*int64(len(src)) {
		t.Fatalf("fp32 wire bytes %d, want %d", got, 4*len(src))
	}
	dst := make([]float32, len(src))
	c.Decode(&w, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("fp32 codec not identity at %d", i)
		}
	}
	// The empty name selects fp32 too (the Config zero value).
	if c2, _ := NewCodec("", 0); c2.Name() != "fp32" {
		t.Fatal("empty codec name must resolve to fp32")
	}
}

func TestInt8CodecRoundTripBounded(t *testing.T) {
	c, err := NewCodec("int8", 7)
	if err != nil {
		t.Fatal(err)
	}
	// Two chunks with very different magnitudes: per-chunk scales must keep
	// the small chunk's quantisation step small.
	src := make([]float32, 2*ChunkElems)
	rng := tensor.NewRNG(2)
	for i := 0; i < ChunkElems; i++ {
		src[i] = float32(rng.Norm()) * 100
	}
	for i := ChunkElems; i < len(src); i++ {
		src[i] = float32(rng.Norm()) * 1e-3
	}
	var w Wire
	c.Encode(&w, src)
	dst := make([]float32, len(src))
	c.Decode(&w, dst)
	for i := range src {
		step := float64(w.Scales[i/ChunkElems])
		if err := math.Abs(float64(dst[i] - src[i])); err > step*1.01 {
			t.Fatalf("elem %d: error %v exceeds one step %v", i, err, step)
		}
	}
	// A shared per-tensor scale would make the small chunk's step ~1e5
	// larger; per-chunk scales must hold it near its own magnitude.
	if w.Scales[1] > w.Scales[0]/1000 {
		t.Fatalf("per-chunk scales not independent: %v vs %v", w.Scales[0], w.Scales[1])
	}
}

func TestInt8CodecWireBytes(t *testing.T) {
	c, _ := NewCodec("int8", 0)
	n := 3*ChunkElems + 5
	src := randVec(3, n)
	var w Wire
	c.Encode(&w, src)
	want := int64(n) + 4*4 // payload + 4 chunk scales
	if got := w.Bytes(); got != want {
		t.Fatalf("int8 wire bytes %d, want %d", got, want)
	}
	if got := c.WireBytes(n); got != want {
		t.Fatalf("WireBytes %d, want %d", got, want)
	}
	// ≥3x under fp32, the compression the overlapped trainer banks on.
	if ratio := float64(4*n) / float64(want); ratio < 3 {
		t.Fatalf("int8 wire reduction %.2fx < 3x", ratio)
	}
}

func TestCodecSteadyStateDoesNotAllocate(t *testing.T) {
	for _, name := range []string{"fp32", "int8"} {
		c, _ := NewCodec(name, 3)
		src := randVec(5, ChunkElems+77)
		dst := make([]float32, len(src))
		var w Wire
		c.Encode(&w, src) // grow buffers once
		if n := testing.AllocsPerRun(20, func() {
			c.Encode(&w, src)
			c.Decode(&w, dst)
		}); n != 0 {
			t.Fatalf("%s codec steady state allocates %.1f per round", name, n)
		}
	}
}

func TestUnknownCodecRejected(t *testing.T) {
	if _, err := NewCodec("fp64", 0); err == nil {
		t.Fatal("unknown codec must error")
	}
}
