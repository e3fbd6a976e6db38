package tensor

import (
	"testing"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Rank() != 3 || x.Shape[0] != 2 || x.Shape[1] != 3 || x.Shape[2] != 4 {
		t.Fatalf("bad shape %v", x.Shape)
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major offset check: (1*3+2)*4+3 = 23.
	if x.Data[23] != 7.5 {
		t.Fatalf("row-major layout broken: %v", x.Data)
	}
}

func TestFromSliceAliases(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 9
	if x.At(0, 0) != 9 {
		t.Fatal("FromSlice must alias, not copy")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	x := New(3)
	x.Data[1] = 5
	y := x.Clone()
	y.Data[1] = 6
	if x.Data[1] != 5 {
		t.Fatal("Clone must copy data")
	}
	y.Shape[0] = 99
	if x.Shape[0] != 3 {
		t.Fatal("Clone must copy shape")
	}
}

func TestZeroFillSum(t *testing.T) {
	x := FromSlice([]float32{2.5, 2.5, 2.5, 2.5}, 4)
	if x.Sum() != 10 {
		t.Fatalf("Sum = %v, want 10", x.Sum())
	}
	x.Zero()
	if x.Sum() != 0 {
		t.Fatal("Zero failed")
	}
}
