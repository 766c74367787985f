package experiments

// This file is the backend-generic core of the evaluation campaigns:
// every figure function in experiments.go and spin.go is a thin wrapper
// over SortOnlyAt / RefineAt / the *Grid sweeps here, parameterized by a
// memmodel.Point instead of a concrete device model. Seed derivations and
// stage accounting are pinned byte-identically by cmd/regress, so the
// wrappers reproduce the exact pre-seam golden rows for both registered
// backends.

import (
	"fmt"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/mem"
	"approxsort/internal/memmodel"
	"approxsort/internal/parallel"
	"approxsort/internal/rng"
	"approxsort/internal/sortedness"
	"approxsort/internal/sorts"
	"approxsort/internal/verify"
)

// algPoint is one (algorithm, backend operating point) cell of a
// row-major flattened study grid.
type algPoint struct {
	alg sorts.Algorithm
	pt  memmodel.Point
}

func algPointGrid(algs []sorts.Algorithm, pts []memmodel.Point) []algPoint {
	grid := make([]algPoint, 0, len(algs)*len(pts))
	for _, alg := range algs {
		for _, pt := range pts {
			grid = append(grid, algPoint{alg, pt})
		}
	}
	return grid
}

// mlcT returns the half-width for pcm-mlc points and 0 for every other
// backend — the legacy RefineRow/SortOnlyRow T column.
func mlcT(pt memmodel.Point) float64 {
	if pt.Backend != memmodel.PCMMLC {
		return 0
	}
	t, _ := pt.Param("t")
	return t
}

// SortOnlyAt sorts keys entirely in approximate memory at the given
// backend point and measures the Section 3 / Appendix A sort-only
// quantities. A shadow record-ID array (in its own uncharged precise
// space) tracks element identity for the error-rate metric, and the
// identical sort on precise memory provides the write-reduction
// reference. The run is audited by verify.CheckApproxRun — including the
// backend's accounting identities — before its row is reported. seed is
// the point's stream seed; the backend's pinned SortOnlySeeds schedule
// derives the space and sort streams from it.
func SortOnlyAt(alg sorts.Algorithm, pt memmodel.Point, keys []uint32, seed uint64) (SortOnlyRow, error) {
	b, pt, err := memmodel.Resolve(pt.Backend, pt.Params, 0)
	if err != nil {
		return SortOnlyRow{}, fmt.Errorf("experiments: %w", err)
	}
	n := len(keys)
	spaceSeed, sortSeed := b.SortOnlySeeds(seed)
	approx := b.NewApprox(pt, spaceSeed)
	shadow := mem.NewPreciseSpace() // IDs: instrumentation only
	p := sorts.Pair{Keys: approx.Alloc(n), IDs: shadow.Alloc(n)}
	mem.Load(p.Keys, keys)
	mem.Load(p.IDs, dataset.IDs(n))
	approx.ResetStats() // accounting starts after warm-up
	alg.Sort(p, sorts.Env{KeySpace: approx, IDSpace: shadow, R: rng.New(sortSeed)})
	approxStats := approx.Stats()

	// Reference: the identical sort on precise memory, from an identical
	// pivot stream.
	precise := b.NewPrecise()
	q := sorts.Pair{Keys: precise.Alloc(n)}
	mem.Load(q.Keys, keys)
	precise.ResetStats()
	alg.Sort(q, sorts.Env{KeySpace: precise, IDSpace: shadow, R: rng.New(sortSeed)})
	preciseNanos := precise.Stats().WriteNanos

	out := mem.PeekAll(p.Keys)   //nolint:memescape // measurement-only peek after the accounted run; charged reads would perturb Eq. 1
	idsRaw := mem.PeekAll(p.IDs) //nolint:memescape // shadow IDs live in an uncharged instrumentation space
	ids := make([]int, n)
	for i, v := range idsRaw {
		ids[i] = int(v)
	}
	if err := verify.CheckApproxRun(keys, out, ids, approxStats, b.Identities(pt)).Err(); err != nil {
		return SortOnlyRow{}, fmt.Errorf("experiments: %s %s n=%d: %w", alg.Name(), pt, n, err)
	}
	row := SortOnlyRow{
		Algorithm: alg.Name(),
		Backend:   b.Name(),
		Point:     pt,
		T:         mlcT(pt),
		N:         n,
		ErrorRate: sortedness.ErrorRate(out, ids, keys),
		RemRatio:  sortedness.RemRatio(out),
	}
	if preciseNanos > 0 {
		row.WriteReduction = 1 - approxStats.WriteNanos/preciseNanos
	}
	return row, nil
}

// SortOnlyGrid sweeps every (algorithm, point) cell of the sort-only
// study on the worker pool. Per-cell streams are keyed by the cell's
// coordinates (memmodel.SplitPoint), so rows are bit-identical for any
// worker count and stable under roster reordering.
func SortOnlyGrid(algs []sorts.Algorithm, pts []memmodel.Point, n int, seed uint64, workers int) ([]SortOnlyRow, error) {
	keys := dataset.Uniform(n, seed)
	return parallel.Map(algPointGrid(algs, pts), workers, func(_ int, p algPoint) (SortOnlyRow, error) {
		b, pt, err := memmodel.Resolve(p.pt.Backend, p.pt.Params, 0)
		if err != nil {
			return SortOnlyRow{}, fmt.Errorf("experiments: %w", err)
		}
		return SortOnlyAt(p.alg, pt, keys, memmodel.SplitPoint(seed, p.alg.Name(), b, pt))
	})
}

// RefineAt runs approx-refine once at the given backend point and derives
// the Figure 9–11 / 13–14 quantities. Every run is audited by
// verify.CheckRefineRun against the backend's identity set before its row
// is reported: a sweep cannot silently emit figure data from a run that
// violated the precision contract or the write-accounting identities.
func RefineAt(alg sorts.Algorithm, pt memmodel.Point, keys []uint32, seed uint64) (RefineRow, error) {
	b, pt, err := memmodel.Resolve(pt.Backend, pt.Params, 0)
	if err != nil {
		return RefineRow{}, fmt.Errorf("experiments: %w", err)
	}
	res, err := core.Run(keys, core.Config{
		Algorithm: alg,
		NewSpace:  func(s uint64) core.Space { return b.NewApprox(pt, s) },
		Seed:      seed,
	})
	if err != nil {
		return RefineRow{}, err
	}
	if err := verify.CheckRefineRun(keys, res, b.Identities(pt)).Err(); err != nil {
		return RefineRow{}, fmt.Errorf("experiments: %s %s n=%d: %w", alg.Name(), pt, len(keys), err)
	}
	if err := verify.CheckAlgorithmWrites(alg, res.Report).Err(); err != nil {
		return RefineRow{}, fmt.Errorf("experiments: %s %s n=%d: %w", alg.Name(), pt, len(keys), err)
	}
	r := res.Report
	row := RefineRow{
		Algorithm:          r.Algorithm,
		Backend:            b.Name(),
		Point:              pt,
		T:                  mlcT(pt),
		N:                  r.N,
		WriteReduction:     r.WriteReduction(),
		RemTildeRatio:      r.RemTildeRatio(),
		ApproxWriteNanos:   r.ApproxPhase().WriteNanos(),
		RefineWriteNanos:   r.RefinePhase().WriteNanos(),
		BaselineWriteNanos: r.Baseline.WriteNanos,
		ApproxEnergy:       r.ApproxPhase().WriteEnergy(),
		RefineEnergy:       r.RefinePhase().WriteEnergy(),
		EnergySaving:       r.EnergySaving(),
		Sorted:             r.Sorted,
	}
	if alpha, err := core.AlphaFor(alg); err == nil {
		p := measuredP(r)
		row.ModelWR = core.CostModel{P: p, Alpha: alpha}.WriteReduction(r.N, r.RemTilde)
	}
	return row, nil
}

// RefineGrid sweeps every (algorithm, point) cell of the approx-refine
// study on the worker pool, with the same coordinate-keyed determinism
// contract as SortOnlyGrid.
func RefineGrid(algs []sorts.Algorithm, pts []memmodel.Point, n int, seed uint64, workers int) ([]RefineRow, error) {
	keys := dataset.Uniform(n, seed)
	return parallel.Map(algPointGrid(algs, pts), workers, func(_ int, p algPoint) (RefineRow, error) {
		b, pt, err := memmodel.Resolve(p.pt.Backend, p.pt.Params, 0)
		if err != nil {
			return RefineRow{}, fmt.Errorf("experiments: %w", err)
		}
		return RefineAt(p.alg, pt, keys, memmodel.SplitPoint(seed, p.alg.Name(), b, pt))
	})
}

// ShapeAt returns the post-sort sequence X itself — the data behind the
// scatter plots of Figures 5–7 — at any backend point.
func ShapeAt(alg sorts.Algorithm, pt memmodel.Point, n int, seed uint64) ([]uint32, error) {
	b, pt, err := memmodel.Resolve(pt.Backend, pt.Params, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	keys := dataset.Uniform(n, seed)
	approx := b.NewApprox(pt, seed^0x5151)
	p := sorts.Pair{Keys: approx.Alloc(n)}
	mem.Load(p.Keys, keys)
	alg.Sort(p, sorts.Env{KeySpace: approx, IDSpace: b.NewPrecise(), R: rng.New(seed ^ 0x3333)})
	return mem.PeekAll(p.Keys), nil //nolint:memescape // the scatter-plot data is the raw stored sequence; nothing downstream is accounted
}

// mlcPoints lifts a T grid into pcm-mlc registry points.
func mlcPoints(ts []float64) []memmodel.Point {
	pts := make([]memmodel.Point, len(ts))
	for i, t := range ts {
		pts[i] = memmodel.MLC(t)
	}
	return pts
}
