package hep

import (
	"math"
	"testing"
	"testing/quick"

	"deep15pf/internal/tensor"
)

func TestROCPerfectClassifier(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []int{1, 1, 0, 0}
	tpr, th := TPRAtFPR(scores, labels, 0.0)
	if tpr != 1 {
		t.Fatalf("perfect classifier TPR@0 = %v", tpr)
	}
	if th > 0.8 {
		t.Fatalf("threshold %v should admit both signals", th)
	}
	if auc := AUC(scores, labels); math.Abs(auc-1) > 1e-9 {
		t.Fatalf("AUC = %v, want 1", auc)
	}
}

func TestROCRandomClassifierAUC(t *testing.T) {
	rng := tensor.NewRNG(1)
	n := 4000
	scores := make([]float64, n)
	labels := make([]int, n)
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Intn(2)
	}
	auc := AUC(scores, labels)
	if math.Abs(auc-0.5) > 0.05 {
		t.Fatalf("random AUC = %v, want ~0.5", auc)
	}
}

func TestROCAntiClassifier(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []int{1, 1, 0, 0}
	if auc := AUC(scores, labels); auc > 0.1 {
		t.Fatalf("anti-classifier AUC = %v", auc)
	}
}

func TestROCMonotone(t *testing.T) {
	rng := tensor.NewRNG(2)
	scores := make([]float64, 500)
	labels := make([]int, 500)
	for i := range scores {
		labels[i] = rng.Intn(2)
		scores[i] = 0.3*rng.Float64() + 0.5*float64(labels[i])
	}
	curve := ROC(scores, labels)
	for i := 1; i < len(curve); i++ {
		if curve[i].TPR < curve[i-1].TPR || curve[i].FPR < curve[i-1].FPR {
			t.Fatal("ROC must be monotone in both rates")
		}
	}
	last := curve[len(curve)-1]
	if last.TPR != 1 || last.FPR != 1 {
		t.Fatalf("curve must end at (1,1), got (%v,%v)", last.FPR, last.TPR)
	}
}

func TestROCHandlesTies(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []int{1, 0, 1, 0}
	curve := ROC(scores, labels)
	if len(curve) != 1 {
		t.Fatalf("tied scores should collapse to one point, got %d", len(curve))
	}
	if curve[0].TPR != 1 || curve[0].FPR != 1 {
		t.Fatalf("tie point = %+v", curve[0])
	}
}

// Property: AUC is invariant under any strictly monotone transform of the
// scores.
func TestAUCMonotoneInvarianceProperty(t *testing.T) {
	f := func(seed uint32) bool {
		rng := tensor.NewRNG(uint64(seed) + 11)
		n := 20 + rng.Intn(60)
		scores := make([]float64, n)
		labels := make([]int, n)
		hasSig, hasBg := false, false
		for i := range scores {
			scores[i] = rng.Float64()
			labels[i] = rng.Intn(2)
			if labels[i] == 1 {
				hasSig = true
			} else {
				hasBg = true
			}
		}
		if !hasSig || !hasBg {
			return true
		}
		a1 := AUC(scores, labels)
		warped := make([]float64, n)
		for i, s := range scores {
			warped[i] = math.Exp(3*s) - 1 // strictly increasing
		}
		a2 := AUC(warped, labels)
		return math.Abs(a1-a2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTPRAtFPRRespectsBudget(t *testing.T) {
	rng := tensor.NewRNG(3)
	n := 2000
	scores := make([]float64, n)
	labels := make([]int, n)
	for i := range scores {
		labels[i] = rng.Intn(2)
		scores[i] = 0.4*rng.Float64() + 0.4*float64(labels[i])
	}
	tpr, th := TPRAtFPR(scores, labels, 0.01)
	// Check the threshold actually achieves FPR ≤ 1%.
	var fp, bg int
	for i := range scores {
		if labels[i] == 0 {
			bg++
			if scores[i] >= th {
				fp++
			}
		}
	}
	if float64(fp)/float64(bg) > 0.011 {
		t.Fatalf("threshold %v gives FPR %v > budget", th, float64(fp)/float64(bg))
	}
	if tpr <= 0 {
		t.Fatal("separable data should have positive TPR at 1% FPR")
	}
}

func TestROCPanicsOnDegenerateInput(t *testing.T) {
	mustPanic := func(f func()) {
		defer func() { _ = recover() }()
		f()
		t.Fatal("expected panic")
	}
	mustPanic(func() { ROC([]float64{0.5}, []int{1, 0}) })
	mustPanic(func() { ROC([]float64{0.5, 0.6}, []int{1, 1}) })
}

func TestCompareToBaselineImprovementRatio(t *testing.T) {
	cfg := DefaultGenConfig()
	rng := tensor.NewRNG(4)
	events, labels := cfg.GenerateEvents(2000, 0.5, rng)
	// Oracle scores: strictly better than any cut — improvement ≥ 1.
	scores := make([]float64, len(labels))
	for i, l := range labels {
		scores[i] = 0.1*rng.Float64() + 0.8*float64(l)
	}
	res := CompareToBaseline(DefaultBaseline(), events, scores, labels)
	if res.Improvement < 1 {
		t.Fatalf("oracle should beat cuts: %+v", res)
	}
	if res.AUC < 0.95 {
		t.Fatalf("oracle AUC = %v", res.AUC)
	}
	if res.String() == "" {
		t.Fatal("empty string rendering")
	}
}
