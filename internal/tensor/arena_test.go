package tensor

import "testing"

func TestArenaGetZeroedAndBucketed(t *testing.T) {
	a := NewArena()
	s := a.Get(100)
	if len(s) != 100 || cap(s) != 128 {
		t.Fatalf("Get(100): len=%d cap=%d, want 100/128", len(s), cap(s))
	}
	for i := range s {
		if s[i] != 0 {
			t.Fatalf("fresh slab not zeroed at %d", i)
		}
		s[i] = float32(i + 1)
	}
	a.Put(s)
	// A smaller request from the same bucket must reuse the slab and see
	// zeroes again (deterministic reset).
	r := a.Get(70)
	if &r[0] != &s[0] {
		t.Fatal("bucket did not recycle the released slab")
	}
	for i := range r {
		if r[i] != 0 {
			t.Fatalf("recycled slab not reset at %d: %v", i, r[i])
		}
	}
	if st := a.Stats(); st.TotalFloats != 128 || st.HeldFloats != 0 {
		t.Fatalf("stats after reuse: %+v", st)
	}
}

func TestArenaDistinctBuckets(t *testing.T) {
	a := NewArena()
	small := a.Get(10)
	a.Put(small)
	big := a.Get(1000) // bucket 1024: must not reuse the 64-float slab
	if cap(big) != 1024 {
		t.Fatalf("Get(1000) cap=%d, want 1024", cap(big))
	}
	if st := a.Stats(); st.TotalFloats != 64+1024 || st.HeldFloats != 64 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestArenaTensorRoundTrip(t *testing.T) {
	a := NewArena()
	x := a.GetTensor(2, 3, 4)
	if x.Len() != 24 || x.Rank() != 3 {
		t.Fatalf("GetTensor shape: %v", x.Shape)
	}
	for i := range x.Data {
		x.Data[i] = 7
	}
	a.PutTensor(x)
	if x.Data != nil {
		t.Fatal("PutTensor must clear Data")
	}
	y := a.GetTensor(4, 6)
	for i, v := range y.Data {
		if v != 0 {
			t.Fatalf("recycled tensor not zeroed at %d", i)
		}
	}
}

func TestArenaRejectsForeignSlab(t *testing.T) {
	a := NewArena()
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a non-bucket slab must panic")
		}
	}()
	a.Put(make([]float32, 100)) // cap 100 is not a bucket size
}

func TestArenaGetZeroLen(t *testing.T) {
	a := NewArena()
	if s := a.Get(0); s != nil {
		t.Fatal("Get(0) must return nil")
	}
}
