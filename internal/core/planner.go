package core

import (
	"errors"
	"fmt"
	"math"

	"approxsort/internal/mlc"
	"approxsort/internal/sorts"
)

// Planner implements the switch decision sketched at the end of
// Section 4.3: "With obtaining WR in the cost analysis, we can decide
// whether the approx-refine approach on the hybrid memory is better than
// the sorting algorithm on precise memory only, and switch between the two
// approaches accordingly."
//
// Rem~ and p(t) are not known before running, so the planner measures both
// on a small pilot: it runs approx-refine over a strided sample of the
// input, reads the pilot's Rem~ ratio and mean approximate write latency,
// extrapolates Rem~ to the full size (corruption per element scales with
// the algorithm's writes per element, α(n)/n), and evaluates Equation 4.
type Planner struct {
	// Config selects the algorithm and memory model exactly as for Run.
	// Baseline and sortedness measurement settings are ignored.
	Config Config

	// PilotSize is the sample size for the pilot run (default 4096,
	// clamped to the input size).
	PilotSize int
}

// Plan is the planner's verdict for a concrete input.
type Plan struct {
	// Algorithm is the registry name of the algorithm the plan evaluates.
	// Set only by PlanAuto, which chooses it; single-algorithm plans leave
	// it empty because the caller already fixed the algorithm.
	Algorithm string `json:",omitempty"`
	// UseHybrid is true when approx-refine is predicted to beat the
	// precise-only sort.
	UseHybrid bool
	// PredictedWR is Equation 4 evaluated at the full size.
	PredictedWR float64
	// P is the measured p(t) from the pilot.
	P float64
	// PilotRemRatio and PredictedRem are the pilot's Rem~/m and the
	// extrapolated full-size remainder.
	PilotRemRatio float64
	PredictedRem  int
	// PilotSize is the sample size actually used.
	PilotSize int
	// External is the out-of-core geometry verdict, set only by
	// PlanExternal (nil for in-memory plans).
	External *ExternalPlan `json:",omitempty"`
	// Sharded is the multi-node fan-out verdict, set only by PlanSharded
	// (nil for single-node plans).
	Sharded *ShardedPlan `json:",omitempty"`
}

// Plan runs the pilot over a strided sample of keys and returns the
// verdict for sorting all of them.
func (pl Planner) Plan(keys []uint32) (Plan, error) {
	pt, err := pl.pilot(keys)
	if err != nil {
		return Plan{}, err
	}
	if pt.m < 2 {
		// Nothing to learn from; the hybrid pipeline is pure overhead
		// at these sizes anyway.
		return Plan{UseHybrid: false, PredictedWR: -1, P: 1, PilotSize: pt.m}, nil
	}
	return pt.verdict(len(keys)), nil
}

// pilotRun is one pilot measurement, shared by Plan and PlanExternal:
// the algorithm's α, the sample size m actually run, and the pilot's
// measured p(t) and Rem~/m (both 1 when m < 2 and nothing ran).
type pilotRun struct {
	alpha    AlphaFunc
	m        int
	p, ratio float64
}

// pilot runs approx-refine over an m-element even-spread sample of keys,
// m = PilotSize (default 4096) clamped to len(keys), with the Config
// scrubbed of everything a pilot must not pay for (baseline, sortedness
// measurement, trace sinks).
func (pl Planner) pilot(keys []uint32) (pilotRun, error) {
	cfg := pl.Config
	cfg.SkipBaseline = true
	cfg.MeasureSortedness = false
	cfg.PreciseSink, cfg.ApproxSink = nil, nil
	if err := cfg.validate(); err != nil {
		return pilotRun{}, err
	}
	alpha, err := AlphaFor(cfg.Algorithm)
	if err != nil {
		return pilotRun{}, fmt.Errorf("core: planner needs an analytic α: %w", err)
	}
	m := pl.PilotSize
	if m <= 0 {
		m = 4096
	}
	pt := pilotRun{alpha: alpha, m: min(m, len(keys)), p: 1, ratio: 1}
	if pt.m < 2 {
		return pt, nil
	}
	res, err := Run(pilotSample(keys, pt.m), cfg)
	if err != nil {
		return pilotRun{}, err
	}
	pt.p = measuredPilotP(res.Report)
	pt.ratio = res.Report.RemTildeRatio()
	return pt, nil
}

// remAt extrapolates the pilot's remainder ratio to L records, capped at
// 1. Corruption accumulates once per key write, so the ratio scales with
// the algorithm's writes per element between the two sizes, α(L)/L over
// α(m)/m (1 for radix, log(L)/log(m) for the comparison sorts).
func (pt pilotRun) remAt(L int) int {
	ratio := pt.ratio
	if pt.m >= 2 {
		if am := pt.alpha(pt.m); am > 0 {
			ratio *= (pt.alpha(L) / float64(L)) / (am / float64(pt.m))
		}
	}
	if ratio > 1 {
		ratio = 1
	}
	return int(ratio * float64(L))
}

// verdict evaluates Equation 4 at L records from the pilot measurement.
func (pt pilotRun) verdict(L int) Plan {
	rem := pt.remAt(L)
	wr := CostModel{P: pt.p, Alpha: pt.alpha}.WriteReduction(L, rem)
	// Service inputs must always yield a JSON-encodable verdict:
	// Equation 4 returns −Inf when α(L) is 0 (L < 2 for the comparison
	// sorts), which still means "don't use hybrid" — clamp it to the same
	// finite sentinel the tiny-input path uses.
	if math.IsInf(wr, 0) || math.IsNaN(wr) {
		wr = -1
	}
	return Plan{
		UseHybrid:     wr > 0,
		PredictedWR:   wr,
		P:             pt.p,
		PilotRemRatio: pt.ratio,
		PredictedRem:  rem,
		PilotSize:     pt.m,
	}
}

// PlanAuto runs the Plan pilot for every candidate algorithm and returns
// the plan of the one with the lowest predicted write cost on this
// backend: min(HybridWrites, BaselineWrites) at the measured p and the
// extrapolated remainder (the two arms of the Section 4.3 switch; Eq. 4's
// WR is exactly 1 − Hybrid/Baseline, so the chosen plan's UseHybrid mode
// already names the cheaper arm). Backend-awareness needs no extra
// plumbing: fixed-latency backends measure p = 1, which zeroes the hybrid
// advantage and reduces the contest to the smallest baseline 2·α(n), while
// write-asymmetric backends weight each candidate's α by its measured
// latency ratio. Ties break to the earlier candidate, so a sorted-name
// roster (sorts.AutoCandidates) makes the choice deterministic.
func (pl Planner) PlanAuto(keys []uint32, candidates []sorts.Candidate) (Plan, error) {
	if len(candidates) == 0 {
		return Plan{}, errors.New("core: PlanAuto needs at least one candidate algorithm")
	}
	n := len(keys)
	var best Plan
	bestCost := math.Inf(1)
	for _, c := range candidates {
		cpl := pl
		cpl.Config.Algorithm = c.Alg
		plan, err := cpl.Plan(keys)
		if err != nil {
			return Plan{}, fmt.Errorf("core: auto candidate %q: %w", c.Name, err)
		}
		alpha, err := AlphaFor(c.Alg)
		if err != nil {
			return Plan{}, fmt.Errorf("core: auto candidate %q: %w", c.Name, err)
		}
		model := CostModel{P: plan.P, Alpha: alpha}
		cost := model.BaselineWrites(n)
		if plan.UseHybrid {
			cost = model.HybridWrites(n, plan.PredictedRem)
		}
		if cost < bestCost {
			bestCost = cost
			plan.Algorithm = c.Name
			best = plan
		}
	}
	return best, nil
}

// pilotSample draws an m-element even-spread sample: element i comes from
// index ⌊i·n/m⌋, so the sample covers the whole input even when m does not
// divide n. (A ⌊n/m⌋ stride degenerates to a prefix sample for any
// n < 2m — stride 1 reads only the first m keys — which skews the pilot
// badly on clustered or value-banded service inputs.)
func pilotSample(keys []uint32, m int) []uint32 {
	n := len(keys)
	pilot := make([]uint32, m)
	for i := 0; i < m; i++ {
		pilot[i] = keys[i*n/m]
	}
	return pilot
}

func measuredPilotP(r *Report) float64 {
	a := r.ApproxPhase().Approx
	if a.Writes == 0 {
		return 1
	}
	return a.WriteNanos / float64(a.Writes) / mlc.PreciseWriteNanos
}
