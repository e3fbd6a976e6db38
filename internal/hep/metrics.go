package hep

import (
	"fmt"
	"sort"
)

// ROC utilities for the §VII-A science comparison: the paper evaluates the
// true-positive rate at the baseline's very low false-positive rate
// (42% @ 0.02% for the cuts; 72% for the CNN — a 1.7× improvement).

// ROCPoint is one operating point of a score threshold scan.
type ROCPoint struct {
	Threshold float64
	TPR, FPR  float64
}

// ROC returns the full threshold scan, sorted by descending threshold
// (ascending FPR). scores are P(signal); labels are 1=signal, 0=background.
func ROC(scores []float64, labels []int) []ROCPoint {
	if len(scores) != len(labels) {
		panic("hep: ROC input length mismatch")
	}
	type sl struct {
		s   float64
		lab int
	}
	pts := make([]sl, len(scores))
	var nSig, nBg int
	for i := range scores {
		pts[i] = sl{scores[i], labels[i]}
		if labels[i] == 1 {
			nSig++
		} else {
			nBg++
		}
	}
	if nSig == 0 || nBg == 0 {
		panic("hep: ROC needs both classes")
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].s > pts[j].s })
	out := make([]ROCPoint, 0, len(pts)+1)
	tp, fp := 0, 0
	for i := 0; i < len(pts); {
		th := pts[i].s
		// Consume ties together so the curve is threshold-consistent.
		for i < len(pts) && pts[i].s == th {
			if pts[i].lab == 1 {
				tp++
			} else {
				fp++
			}
			i++
		}
		out = append(out, ROCPoint{
			Threshold: th,
			TPR:       float64(tp) / float64(nSig),
			FPR:       float64(fp) / float64(nBg),
		})
	}
	return out
}

// TPRAtFPR returns the best true-positive rate achievable at a
// false-positive rate not exceeding maxFPR, with the realising threshold.
// This is the paper's figure of merit: signal efficiency at a fixed, very
// low background acceptance.
func TPRAtFPR(scores []float64, labels []int, maxFPR float64) (tpr, threshold float64) {
	curve := ROC(scores, labels)
	threshold = 1
	for _, p := range curve {
		if p.FPR <= maxFPR && p.TPR > tpr {
			tpr = p.TPR
			threshold = p.Threshold
		}
	}
	return tpr, threshold
}

// AUC returns the area under the ROC curve by trapezoidal integration.
func AUC(scores []float64, labels []int) float64 {
	curve := ROC(scores, labels)
	var area, prevFPR, prevTPR float64
	for _, p := range curve {
		area += (p.FPR - prevFPR) * (p.TPR + prevTPR) / 2
		prevFPR, prevTPR = p.FPR, p.TPR
	}
	area += (1 - prevFPR) * (1 + prevTPR) / 2
	return area
}

// ScienceResult packages the §VII-A comparison.
type ScienceResult struct {
	BaselineTPR, BaselineFPR float64
	CNNTPRAtBaselineFPR      float64
	Improvement              float64 // CNN TPR / baseline TPR
	AUC                      float64
}

func (r ScienceResult) String() string {
	return fmt.Sprintf("baseline TPR %.1f%% @ FPR %.3f%% | CNN TPR %.1f%% (%.2fx) | AUC %.3f",
		100*r.BaselineTPR, 100*r.BaselineFPR, 100*r.CNNTPRAtBaselineFPR, r.Improvement, r.AUC)
}

// CompareToBaseline evaluates the CNN scores against the cut-based working
// point on the same labelled sample, at the baseline's measured FPR.
func CompareToBaseline(cuts BaselineCuts, events []Event, scores []float64, labels []int) ScienceResult {
	tpr, fpr := cuts.Evaluate(events, labels)
	if fpr <= 0 {
		// No background passes on this sample size; evaluate the CNN at
		// the smallest resolvable FPR instead.
		fpr = 1 / float64(len(labels))
	}
	cnnTPR, _ := TPRAtFPR(scores, labels, fpr)
	res := ScienceResult{
		BaselineTPR:         tpr,
		BaselineFPR:         fpr,
		CNNTPRAtBaselineFPR: cnnTPR,
		AUC:                 AUC(scores, labels),
	}
	if tpr > 0 {
		res.Improvement = cnnTPR / tpr
	}
	return res
}
