package core

import (
	"fmt"
	"math"

	"approxsort/internal/sorts"
)

// AlphaFunc is αalg(n): the expected number of key memory writes the
// algorithm issues to sort n elements (Section 4.3).
type AlphaFunc func(n int) float64

// AlphaFor returns the analytic α an algorithm declares in its registry
// profile (sorts.Profiled). Algorithms without a profile — or whose
// profile declares no analytic write model — cannot be routed by the
// planner and return an error.
func AlphaFor(alg sorts.Algorithm) (AlphaFunc, error) {
	prof, ok := sorts.ProfileOf(alg)
	if !ok || prof.Alpha == nil {
		return nil, fmt.Errorf("core: no analytic α for algorithm %q", alg.Name())
	}
	return prof.Alpha, nil
}

// CostModel is the Section 4.3 analysis of approx-refine. It predicts the
// write reduction WRalg(n, t) from the approximate memory's pulse-count
// ratio p(t), the heuristic remainder size Rem~, and αalg.
type CostModel struct {
	// P is p(t): one approximate write costs P precise writes.
	P float64
	// Alpha is αalg.
	Alpha AlphaFunc
}

// HybridWrites returns the total equivalent number of precise memory
// writes (TEPMW) the approx-refine execution performs:
//
//	(p+1)·α(n) + 2·Rem~ + (2+p)·n + α(Rem~)
//
// (approx preparation p·n; approx stage (p+1)·α(n); refine steps
// Rem~ + α(Rem~) + (Rem~ + 2n)).
func (c CostModel) HybridWrites(n, rem int) float64 {
	return (c.P+1)*c.Alpha(n) + 2*float64(rem) + (2+c.P)*float64(n) + c.Alpha(rem)
}

// BaselineWrites returns the traditional precise-only sort's write count,
// 2·α(n) (keys plus record IDs).
func (c CostModel) BaselineWrites(n int) float64 { return 2 * c.Alpha(n) }

// WriteReduction evaluates Equation 4:
//
//	WR = (1−p)/2 − (Rem~ + (1 + p/2)·n)/α(n) − α(Rem~)/(2·α(n))
//
// It returns negative infinity when α(n) is zero (n < 2 for the
// comparison sorts), where the hybrid pipeline is pure overhead.
func (c CostModel) WriteReduction(n, rem int) float64 {
	alphaN := c.Alpha(n)
	if alphaN == 0 { //nolint:floatord // α(n) = 0 is an exact structural sentinel (n < 2), not an accumulated sum
		return math.Inf(-1)
	}
	return (1-c.P)/2 -
		(float64(rem)+(1+0.5*c.P)*float64(n))/alphaN -
		c.Alpha(rem)/(2*alphaN)
}

// UseHybrid reports the Section 4.3 switch decision: run approx-refine
// only when the model predicts positive write reduction.
func (c CostModel) UseHybrid(n, rem int) bool {
	return c.WriteReduction(n, rem) > 0
}
