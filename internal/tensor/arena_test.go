package tensor

import "testing"

func TestArenaGetExact(t *testing.T) {
	a := NewArena()
	s := a.Get(100)
	if len(s) != 100 || cap(s) != 100 {
		t.Fatalf("Get(100): len=%d cap=%d, want 100/100", len(s), cap(s))
	}
	for i := range s {
		if s[i] != 0 {
			t.Fatalf("fresh slab not zeroed at %d", i)
		}
	}
	a.Get(1000)
	if st := a.Stats(); st.TotalFloats != 1100 || st.Bytes() != 4400 {
		t.Fatalf("stats after two slabs: %+v", st)
	}
}

func TestArenaTensorRoundTrip(t *testing.T) {
	a := NewArena()
	x := a.GetTensor(2, 3, 4)
	if x.Len() != 24 || x.Rank() != 3 || cap(x.Data) != 24 {
		t.Fatalf("GetTensor shape %v cap %d", x.Shape, cap(x.Data))
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("fresh tensor not zeroed at %d", i)
		}
	}
}

func TestArenaGetZeroLen(t *testing.T) {
	a := NewArena()
	if s := a.Get(0); s != nil {
		t.Fatal("Get(0) must return nil")
	}
}

// TestStagingExact: a staging slot holds exactly the largest batch it has
// staged, n × per floats, and a smaller batch is a view of it. A 32-sample
// hep-small training slot (3 × 32 × 32 floats a sample) is 384 KiB.
func TestStagingExact(t *testing.T) {
	a := NewArena()
	s := NewStaging(a, 3, 32, 32)
	x := s.Batch(32)
	if got := int64(cap(x.Data)) * 4; got != 384<<10 {
		t.Fatalf("a 32-sample slot holds %d bytes, want %d", got, 384<<10)
	}
	if st := a.Stats(); st.Bytes() != 384<<10 {
		t.Fatalf("the arena handed out %d bytes for one 32-sample slot, want %d", st.Bytes(), 384<<10)
	}
	y := s.Batch(20)
	if y.Shape[0] != 20 || len(y.Data) != 20*3*32*32 || &y.Data[0] != &x.Data[0] {
		t.Fatalf("a smaller batch is not a view of the slot: shape %v len %d", y.Shape, len(y.Data))
	}
	if st := a.Stats(); st.TotalFloats != 32*3*32*32 {
		t.Fatalf("a smaller batch grew the slot to %d floats", st.TotalFloats)
	}
	z := s.Batch(33)
	if len(z.Data) != 33*3*32*32 || cap(z.Data) != 33*3*32*32 {
		t.Fatalf("growing to 33 samples: len %d cap %d, want both %d", len(z.Data), cap(z.Data), 33*3*32*32)
	}
}
