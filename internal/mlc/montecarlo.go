package mlc

import (
	"approxsort/internal/parallel"
	"approxsort/internal/rng"
)

// Stats summarizes a Monte-Carlo campaign over the cell model, matching
// the quantities plotted in Figure 2 of the paper.
type Stats struct {
	// T is the target half-width the campaign ran at.
	T float64
	// AvgP is the mean number of P&V pulses per cell write (Fig. 2a).
	AvgP float64
	// CellErrorRate is the fraction of cell writes whose read-back level
	// differed from the target (Fig. 2b, "2-bit" series).
	CellErrorRate float64
	// WordErrorRate is the fraction of 32-bit word writes with at least
	// one corrupted cell (Fig. 2b, "32-bit" series).
	WordErrorRate float64
	// CellWrites and WordWrites record the campaign sizes.
	CellWrites, WordWrites int
}

// PRatio returns p(t) = AvgP / ReferenceAvgP (Section 2.2), using the
// paper's precise-memory anchor as the denominator.
func (s Stats) PRatio() float64 { return s.AvgP / ReferenceAvgP }

// WriteReduction returns the write-latency reduction 1 − p(t) that sorting
// entirely in approximate memory can at best achieve (Equation 1 with every
// write approximate).
func (s Stats) WriteReduction() float64 { return 1 - s.PRatio() }

// MonteCarlo writes `words` uniformly random 32-bit values through the
// exact cell model at configuration p (the paper's campaign writes 1e8
// cells; see cmd/study -fig 2 for the scaled default) and returns the observed
// statistics. The seed makes runs reproducible.
func MonteCarlo(p Params, words int, seed uint64) Stats {
	model := NewExact(p)
	r := rng.New(seed)
	cells := p.CellsPerWord()
	bits := p.BitsPerCell()
	mask := uint32(p.Levels - 1)
	totalIters := 0
	cellErrs := 0
	wordErrs := 0
	for i := 0; i < words; i++ {
		w := r.Uint32()
		stored, iters := model.WriteWord(r, w)
		totalIters += iters
		if stored != w {
			wordErrs++
			diff := stored ^ w
			for shift := 0; shift < 32; shift += bits {
				if diff>>shift&mask != 0 {
					cellErrs++
				}
			}
		}
	}
	return Stats{
		T:             p.T,
		AvgP:          float64(totalIters) / float64(words*cells),
		CellErrorRate: float64(cellErrs) / float64(words*cells),
		WordErrorRate: float64(wordErrs) / float64(words),
		CellWrites:    words * cells,
		WordWrites:    words,
	}
}

// Sweep runs MonteCarlo for each T in ts and returns the per-T statistics,
// reproducing both panels of Figure 2 in one pass. Each point's RNG stream
// is keyed by its T coordinate (rng.Split), so a point's numbers do not
// depend on where it sits in the grid.
func Sweep(base Params, ts []float64, words int, seed uint64) []Stats {
	out := make([]Stats, 0, len(ts))
	for _, t := range ts {
		p := base
		p.T = t
		out = append(out, MonteCarlo(p, words, rng.Split(seed, t)))
	}
	return out
}

// SweepParallel is Sweep on the shared bounded worker pool (workers <= 0
// means one per CPU). Point streams are coordinate-keyed, so the output is
// bit-identical to Sweep for every worker count. (The paper reports that
// multithreading had insignificant impact on the *studied metrics* — write
// counts are deterministic — which is exactly why parallel simulation is
// safe here.)
func SweepParallel(base Params, ts []float64, words int, seed uint64, workers int) []Stats {
	out, _ := parallel.Map(ts, workers, func(_ int, t float64) (Stats, error) {
		p := base
		p.T = t
		return MonteCarlo(p, words, rng.Split(seed, t)), nil
	})
	return out
}

// DensityPoint is one point of the cell-density sweep.
type DensityPoint struct {
	Levels        int
	GuardFraction float64
	Params        Params // the cell at that level count and guard fraction
	Stats         Stats
}

// DensitySweep sweeps the Sampson cell-density axis: SLC, 4-level and
// 16-level cells at guard fractions 0.2–0.8. Cells with more levels store
// more bits but demand tighter absolute targets, costing pulses and
// reliability at the same relative guard fraction. Points run on the
// shared worker pool with coordinate-keyed streams, so the output is
// identical for every worker count.
func DensitySweep(words int, seed uint64, workers int) []DensityPoint {
	var pts []DensityPoint
	for _, levels := range []int{2, 4, 16} {
		for _, f := range []float64{0.2, 0.4, 0.6, 0.8} {
			pts = append(pts, DensityPoint{Levels: levels, GuardFraction: f, Params: GuardFraction(levels, f)})
		}
	}
	out, _ := parallel.Map(pts, workers, func(_ int, pt DensityPoint) (DensityPoint, error) {
		pt.Stats = MonteCarlo(pt.Params, words, rng.Split(seed, pt.Levels, pt.GuardFraction))
		return pt, nil
	})
	return out
}

// StandardTs returns the T grid used throughout the paper's figures:
// 0.025 to 0.1 in steps of 0.005, optionally extended to 0.124 (the Fig. 2
// x-axis runs past 0.1 even though the sorting studies stop there).
func StandardTs(extended bool) []float64 {
	var ts []float64
	for t := 0.025; t <= 0.1+1e-9; t += 0.005 {
		ts = append(ts, round3(t))
	}
	if extended {
		for t := 0.105; t <= 0.12+1e-9; t += 0.005 {
			ts = append(ts, round3(t))
		}
		ts = append(ts, 0.124)
	}
	return ts
}

func round3(t float64) float64 {
	return float64(int(t*1000+0.5)) / 1000
}
