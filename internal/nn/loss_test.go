package nn

import (
	"math"
	"testing"
	"testing/quick"

	"deep15pf/internal/tensor"
)

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 2 classes → loss = ln 2.
	logits := tensor.New(1, 2)
	grad := tensor.New(1, 2)
	loss := SoftmaxCrossEntropyInto(logits, []int{0}, grad)
	if math.Abs(loss-math.Ln2) > 1e-6 {
		t.Fatalf("loss = %v, want ln2", loss)
	}
	// grad = p - onehot = [0.5-1, 0.5] = [-0.5, 0.5]
	if math.Abs(float64(grad.Data[0])+0.5) > 1e-6 || math.Abs(float64(grad.Data[1])-0.5) > 1e-6 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestSoftmaxCrossEntropyGradientNumerical(t *testing.T) {
	rng := tensor.NewRNG(1)
	logits := tensor.New(3, 4)
	rng.FillNorm(logits, 0, 2)
	labels := []int{1, 3, 0}
	grad := tensor.New(3, 4)
	SoftmaxCrossEntropyInto(logits, labels, grad)
	loss := func() float64 { return SoftmaxCrossEntropyInto(logits, labels, tensor.New(3, 4)) }
	gradCheck(t, "softmaxCE", logits.Data, grad.Data, loss, 1)
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	// Huge logits must not overflow.
	logits := tensor.FromSlice([]float32{1000, -1000}, 1, 2)
	grad := tensor.New(1, 2)
	loss := SoftmaxCrossEntropyInto(logits, []int{0}, grad)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(float64(g)) {
			t.Fatal("NaN gradient")
		}
	}
}

// Property: softmax probabilities are positive and sum to 1 per row.
func TestSoftmaxProbsProperty(t *testing.T) {
	f := func(seed uint32) bool {
		rng := tensor.NewRNG(uint64(seed) ^ 0xabcdef)
		n, k := 1+rng.Intn(4), 2+rng.Intn(5)
		logits := tensor.New(n, k)
		rng.FillNorm(logits, 0, 3)
		p := SoftmaxProbs(logits)
		for s := 0; s < n; s++ {
			var sum float64
			for j := 0; j < k; j++ {
				v := p.At(s, j)
				if v < 0 || v > 1 {
					return false
				}
				sum += float64(v)
			}
			if math.Abs(sum-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBCEWithLogits(t *testing.T) {
	// logit 0, target 0.5 → loss = ln 2, grad = 0.
	loss, grad := BCEWithLogits(0, 0.5)
	if math.Abs(loss-math.Ln2) > 1e-6 || math.Abs(float64(grad)) > 1e-6 {
		t.Fatalf("loss=%v grad=%v", loss, grad)
	}
	// Extreme logits stay finite.
	loss, _ = BCEWithLogits(500, 1)
	if math.IsInf(loss, 0) || math.IsNaN(loss) || loss > 1e-6 {
		t.Fatalf("confident correct: loss=%v", loss)
	}
	loss, _ = BCEWithLogits(-500, 1)
	if math.IsInf(loss, 0) || math.IsNaN(loss) {
		t.Fatalf("confident wrong must be finite: %v", loss)
	}
}

func TestBCEGradientNumerical(t *testing.T) {
	for _, x := range []float32{-2, -0.5, 0.3, 1.7} {
		for _, target := range []float32{0, 0.3, 1} {
			_, grad := BCEWithLogits(x, target)
			eps := float32(1e-3)
			lp, _ := BCEWithLogits(x+eps, target)
			lm, _ := BCEWithLogits(x-eps, target)
			num := (lp - lm) / (2 * float64(eps))
			if math.Abs(float64(grad)-num) > 1e-3 {
				t.Fatalf("BCE grad at x=%v t=%v: %v vs %v", x, target, grad, num)
			}
		}
	}
}

func TestMSELoss(t *testing.T) {
	pred := tensor.FromSlice([]float32{1, 2}, 2)
	target := tensor.FromSlice([]float32{0, 0}, 2)
	grad := tensor.New(2)
	loss := MSELossInto(pred, target, grad)
	if math.Abs(loss-1.25) > 1e-6 { // (1+4)/(2*2)
		t.Fatalf("mse = %v", loss)
	}
	if grad.Data[0] != 0.5 || grad.Data[1] != 1 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestMSELossGradientNumerical(t *testing.T) {
	rng := tensor.NewRNG(2)
	pred := tensor.New(6)
	target := tensor.New(6)
	rng.FillNorm(pred, 0, 1)
	rng.FillNorm(target, 0, 1)
	grad := tensor.New(6)
	MSELossInto(pred, target, grad)
	loss := func() float64 { return MSELossInto(pred, target, tensor.New(6)) }
	gradCheck(t, "mse", pred.Data, grad.Data, loss, 1)
}

func TestSmoothL1(t *testing.T) {
	// Quadratic region.
	l, g := SmoothL1(0.5)
	if math.Abs(l-0.125) > 1e-6 || g != 0.5 {
		t.Fatalf("smoothl1(0.5) = %v, %v", l, g)
	}
	// Linear region.
	l, g = SmoothL1(3)
	if math.Abs(l-2.5) > 1e-6 || g != 1 {
		t.Fatalf("smoothl1(3) = %v, %v", l, g)
	}
	l, g = SmoothL1(-3)
	if math.Abs(l-2.5) > 1e-6 || g != -1 {
		t.Fatalf("smoothl1(-3) = %v, %v", l, g)
	}
}

func TestSigmoidRange(t *testing.T) {
	for _, x := range []float32{-100, -1, 0, 1, 100} {
		s := Sigmoid(x)
		if s < 0 || s > 1 {
			t.Fatalf("sigmoid(%v) = %v", x, s)
		}
	}
	if Sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0) != 0.5")
	}
}

func TestSoftmaxTop1Table(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	cases := []struct {
		name      string
		rows      [][]float32
		wantLabel []int32
		wantConf  []float64 // approximate; <0 means "don't check"
		wantErr   bool
	}{
		{
			name:      "clear winner",
			rows:      [][]float32{{0, 4, 0, 0}},
			wantLabel: []int32{1},
			wantConf:  []float64{math.Exp(4) / (math.Exp(4) + 3)},
		},
		{
			name:      "two-way tie resolves to lowest index",
			rows:      [][]float32{{2, 2, 0}},
			wantLabel: []int32{0},
			wantConf:  []float64{math.Exp(2) / (2*math.Exp(2) + 1)},
		},
		{
			name:      "all-equal logits pick class 0 at 1/k",
			rows:      [][]float32{{7, 7, 7, 7, 7}},
			wantLabel: []int32{0},
			wantConf:  []float64{0.2},
		},
		{
			name:      "negative logits",
			rows:      [][]float32{{-9, -1, -5}},
			wantLabel: []int32{1},
			wantConf:  []float64{-1},
		},
		{
			name:      "multi-row batch keeps rows independent",
			rows:      [][]float32{{0, 10}, {10, 0}, {3, 3}},
			wantLabel: []int32{1, 0, 0},
			wantConf:  []float64{-1, -1, 0.5},
		},
		{
			name:    "NaN rejected",
			rows:    [][]float32{{0, 1}, {nan, 0}},
			wantErr: true,
		},
		{
			name:    "+Inf rejected",
			rows:    [][]float32{{inf, 0}},
			wantErr: true,
		},
		{
			name:    "-Inf rejected",
			rows:    [][]float32{{0, -inf}},
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, k := len(tc.rows), len(tc.rows[0])
			logits := tensor.New(n, k)
			for i, row := range tc.rows {
				copy(logits.Data[i*k:(i+1)*k], row)
			}
			conf := make([]float32, n)
			label := make([]int32, n)
			err := SoftmaxTop1(logits, conf, label)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("want loud rejection, got labels %v", label)
				}
				return
			}
			if err != nil {
				t.Fatalf("SoftmaxTop1: %v", err)
			}
			for i := range tc.wantLabel {
				if label[i] != tc.wantLabel[i] {
					t.Errorf("row %d: label = %d, want %d", i, label[i], tc.wantLabel[i])
				}
				if tc.wantConf[i] >= 0 && math.Abs(float64(conf[i])-tc.wantConf[i]) > 1e-6 {
					t.Errorf("row %d: conf = %v, want %v", i, conf[i], tc.wantConf[i])
				}
				if conf[i] <= 0 || conf[i] > 1 {
					t.Errorf("row %d: conf %v outside (0,1]", i, conf[i])
				}
			}
		})
	}
}

func TestSoftmaxTop1MatchesSoftmaxProbs(t *testing.T) {
	rng := tensor.NewRNG(5)
	logits := tensor.New(16, 7)
	rng.FillNorm(logits, 0, 3)
	conf := make([]float32, 16)
	label := make([]int32, 16)
	if err := SoftmaxTop1(logits, conf, label); err != nil {
		t.Fatal(err)
	}
	probs := SoftmaxProbs(logits)
	for s := 0; s < 16; s++ {
		row := probs.Data[s*7 : (s+1)*7]
		best, maxp := 0, row[0]
		for j, p := range row {
			if p > maxp {
				maxp, best = p, j
			}
		}
		if int(label[s]) != best {
			t.Fatalf("row %d: label %d, SoftmaxProbs argmax %d", s, label[s], best)
		}
		if math.Abs(float64(conf[s]-maxp)) > 1e-6 {
			t.Fatalf("row %d: conf %v vs prob %v", s, conf[s], maxp)
		}
	}
}

func TestSoftmaxTop1ShapeErrors(t *testing.T) {
	if err := SoftmaxTop1(tensor.New(4), make([]float32, 4), make([]int32, 4)); err == nil {
		t.Fatal("rank-1 logits accepted")
	}
	if err := SoftmaxTop1(tensor.New(4, 2), make([]float32, 3), make([]int32, 4)); err == nil {
		t.Fatal("short conf accepted")
	}
}

func TestSoftmaxTop1ZeroAlloc(t *testing.T) {
	logits := tensor.New(32, 5)
	tensor.NewRNG(9).FillNorm(logits, 0, 2)
	conf := make([]float32, 32)
	label := make([]int32, 32)
	allocs := testing.AllocsPerRun(50, func() {
		if err := SoftmaxTop1(logits, conf, label); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SoftmaxTop1 allocates %v/op on the bulk hot path", allocs)
	}
}

func TestWeightedCrossEntropyAllOnesMatchesUnweighted(t *testing.T) {
	rng := tensor.NewRNG(3)
	logits := tensor.New(6, 4)
	rng.FillNorm(logits, 0, 2)
	labels := []int{1, 3, 0, 2, 2, 1}
	want := tensor.New(6, 4)
	wantLoss := SoftmaxCrossEntropyInto(logits, labels, want)

	// nil weights must be bitwise the unweighted path.
	gotNil := tensor.New(6, 4)
	if l := SoftmaxCrossEntropyWeightedInto(logits, labels, nil, gotNil); l != wantLoss {
		t.Fatalf("nil-weight loss %v != unweighted %v", l, wantLoss)
	}
	for i := range want.Data {
		if gotNil.Data[i] != want.Data[i] {
			t.Fatalf("nil-weight grad[%d] = %v, want %v bitwise", i, gotNil.Data[i], want.Data[i])
		}
	}

	// All-1 weights match to float tolerance (the mean is over Σw = n).
	ones := []float32{1, 1, 1, 1, 1, 1}
	got := tensor.New(6, 4)
	l := SoftmaxCrossEntropyWeightedInto(logits, labels, ones, got)
	if math.Abs(l-wantLoss) > 1e-9 {
		t.Fatalf("all-1 weighted loss %v, want %v", l, wantLoss)
	}
	for i := range want.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-7 {
			t.Fatalf("all-1 grad[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestWeightedCrossEntropyGradientNumerical(t *testing.T) {
	rng := tensor.NewRNG(7)
	logits := tensor.New(4, 3)
	rng.FillNorm(logits, 0, 2)
	labels := []int{2, 0, 1, 1}
	weights := []float32{1, 0.25, 0, 2}
	grad := tensor.New(4, 3)
	SoftmaxCrossEntropyWeightedInto(logits, labels, weights, grad)
	loss := func() float64 {
		g := tensor.New(4, 3)
		return SoftmaxCrossEntropyWeightedInto(logits, labels, weights, g)
	}
	const h = 1e-3
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + h
		lp := loss()
		logits.Data[i] = orig - h
		lm := loss()
		logits.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-float64(grad.Data[i])) > 1e-3 {
			t.Fatalf("grad[%d] = %v, numerical %v", i, grad.Data[i], num)
		}
	}
	// The zero-weight sample's rows must carry exactly zero gradient.
	for j := 6; j < 9; j++ {
		if grad.Data[j] != 0 {
			t.Fatalf("zero-weight sample leaked gradient %v at %d", grad.Data[j], j)
		}
	}
}

func TestWeightedCrossEntropyZeroWeightSum(t *testing.T) {
	logits := tensor.New(2, 3)
	logits.Data[1] = 5
	grad := tensor.New(2, 3)
	grad.Data[0] = 42 // must be overwritten
	l := SoftmaxCrossEntropyWeightedInto(logits, []int{0, 1}, []float32{0, 0}, grad)
	if l != 0 {
		t.Fatalf("zero-weight batch loss %v, want 0", l)
	}
	for i, g := range grad.Data {
		if g != 0 {
			t.Fatalf("grad[%d] = %v, want 0", i, g)
		}
	}
}
