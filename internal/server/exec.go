package server

import (
	"fmt"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/hybrid"
	"approxsort/internal/mem"
	"approxsort/internal/mlc"
	"approxsort/internal/rng"
	"approxsort/internal/sorts"
	"approxsort/internal/verify"
)

// executeSort runs one in-memory job to completion. The request's Seed
// is split by the job's coordinates — the algorithm name plus the backend
// point's seed-bearing parameters — never by arrival order, so
// resubmitting the same request — on any worker, at any concurrency —
// reproduces the same numbers (the serving-side analogue of the sweep
// determinism contract).
func (s *Server) executeSort(job *Job) (*JobResult, error) {
	spec := job.spec
	keys := spec.Keys
	if spec.Dataset != nil {
		var err error
		keys, err = spec.Dataset.materialize()
		if err != nil {
			return nil, err
		}
	}
	alg, b, pt := spec.alg, spec.backend, spec.point

	res := &JobResult{
		Backend: b.Name(),
		Params:  pt.Params,
		N:       len(keys),
		T:       spec.halfWidth(),
	}

	// seedParts keys a sub-stream by purpose + job coordinates. For
	// pcm-mlc the coordinates are [t], reproducing the pre-seam
	// derivation bit-for-bit. alg is captured by reference: the run
	// stream of an auto job that selected, say, msd is the run stream of
	// an explicit msd job — resubmitting with the choice pinned
	// reproduces the same numbers.
	coords := b.SeedCoords(pt)
	seedParts := func(kind string, extra ...any) []any {
		parts := make([]any, 0, 3+len(coords)+len(extra))
		parts = append(parts, "sortd", kind, alg.Name())
		parts = append(parts, coords...)
		return append(parts, extra...)
	}
	newSpace := func(sd uint64) core.Space { return b.NewApprox(pt, sd) }

	mode := spec.Mode
	if auto := spec.Algorithm == "auto"; auto || mode == ModeAuto {
		pl := core.Planner{
			Config:    core.Config{Algorithm: alg, NewSpace: newSpace},
			PilotSize: s.cfg.PilotSize,
		}
		var plan core.Plan
		var err error
		if auto {
			// Registry-driven selection: one Equation 4 pilot per
			// registered candidate at its default digit width, cheapest
			// predicted writes wins. No single algorithm owns the pilot
			// stream, so it is keyed by the literal roster label instead
			// of an algorithm name.
			pl.Config.Seed = rng.Split(spec.Seed, append([]any{"sortd", "pilot", "auto"}, coords...)...)
			plan, err = pl.PlanAuto(keys, sorts.AutoCandidates())
		} else {
			pl.Config.Seed = rng.Split(spec.Seed, seedParts("pilot")...)
			plan, err = pl.Plan(keys)
		}
		if err == nil {
			err = verify.CheckPlan(len(keys), plan).Err()
		}
		if err == nil && auto {
			alg, err = sorts.New(plan.Algorithm, 0)
		}
		if err != nil {
			return nil, fmt.Errorf("planner: %w", err)
		}
		res.Plan = planView(plan)
		res.PredictedWR = plan.PredictedWR
		if mode == ModeAuto {
			mode = ModePrecise
			if plan.UseHybrid {
				mode = ModeHybrid
			}
		}
	}
	res.Algorithm = alg.Name()
	res.Mode = mode

	runSeed := rng.Split(spec.Seed, seedParts("run", len(keys))...)
	var err error
	if mode == ModeHybrid {
		err = executeHybrid(res, keys, alg, spec, runSeed)
	} else {
		err = executePrecise(res, keys, alg, spec, runSeed)
	}
	if err != nil {
		return nil, err
	}
	res.sanitize()
	return res, nil
}

// planView projects a core plan into the response shape. Algorithm is
// empty (and omitted from the JSON) for explicit-algorithm jobs, where
// the planner only picked the mode.
func planView(plan core.Plan) *PlanView {
	return &PlanView{
		Algorithm:     plan.Algorithm,
		UseHybrid:     plan.UseHybrid,
		PredictedWR:   plan.PredictedWR,
		P:             plan.P,
		PilotRemRatio: plan.PilotRemRatio,
		PredictedRem:  plan.PredictedRem,
		PilotSize:     plan.PilotSize,
	}
}

// executeHybrid runs approx-refine with both spaces sinked into one
// Table 1 memory system, plus the precise-only baseline for the measured
// write reduction. The approximate region's device clock charges the
// backend's modelled mean write latency. The run and its verify chain
// execute inside sys.Run, so the memory-system simulation overlaps both.
func executeHybrid(res *JobResult, keys []uint32, alg sorts.Algorithm, spec *jobSpec, seed uint64) error {
	b, pt := spec.backend, spec.point
	sys := hybrid.New()
	precise := sys.Region("precise", mlc.PreciseWriteNanos)
	approx := sys.Region("approx", b.ApproxWriteNanos(pt))
	var out core.Result
	var err error
	sys.Run(func() {
		out, err = core.Run(keys, core.Config{
			Algorithm:   alg,
			NewSpace:    func(s uint64) core.Space { return b.NewApprox(pt, s) },
			Seed:        seed,
			PreciseSink: precise,
			ApproxSink:  approx,
		})
		if err != nil {
			return
		}
		// Every served job passes through the full invariant checker —
		// held to the backend's accounting identities — plus the
		// memory-system consistency check below before its result is
		// stored — a routing or refine regression fails the job loudly
		// instead of returning a slightly-wrong payload.
		if err = verify.CheckRefineRun(keys, out, b.Identities(pt)).Err(); err != nil {
			return
		}
		err = verify.CheckAlgorithmWrites(alg, out.Report).Err()
	})
	if err != nil {
		return err
	}
	if err := sys.Stats().Check(); err != nil {
		return err
	}
	r := out.Report
	total := r.Total()
	res.Rem = r.RemTilde
	res.Writes = WriteCounts{
		Approx:   total.Approx.Writes,
		Precise:  total.Precise.Writes,
		Baseline: r.Baseline.Writes,
	}
	res.ActualWR = r.WriteReduction()
	res.WriteNanos = total.WriteNanos()
	res.PCMNanos = sys.Clock()
	res.Sorted = r.Sorted
	res.Verified = true
	if spec.ReturnKeys {
		res.Keys = out.Keys
	}
	return nil
}

// executePrecise runs the traditional sort — keys and IDs both precise —
// through its own memory system. It is the baseline, so ActualWR is 0 by
// construction and Baseline mirrors the run itself. The sort and its
// output check execute inside sys.Run, like executeHybrid's.
func executePrecise(res *JobResult, keys []uint32, alg sorts.Algorithm, spec *jobSpec, seed uint64) error {
	n := len(keys)
	sys := hybrid.New()
	region := sys.Region("precise", mlc.PreciseWriteNanos)
	space := mem.NewPreciseSpace()
	var sorted []uint32
	var err error
	sys.Run(func() {
		p := sorts.Pair{Keys: space.Alloc(n), IDs: space.Alloc(n)}
		mem.Load(p.Keys, keys)
		mem.Load(p.IDs, dataset.IDs(n))
		// Accounting and the device clock start after warm-up, matching
		// core.Run and the paper's methodology.
		space.ResetStats()
		space.SetSink(region)
		alg.Sort(p, sorts.Env{KeySpace: space, IDSpace: space, R: rng.New(seed)})
		sorted = mem.PeekAll(p.Keys) //nolint:memescape // response extraction after the accounted run
		// The precise path has no stage accounting, but its output
		// contract is identical: sorted, a permutation, and equal to
		// the reference oracle sort.
		err = verify.CheckOutput(keys, sorted).Err()
	})
	if err != nil {
		return err
	}
	st := space.Stats()
	if err := sys.Stats().Check(); err != nil {
		return err
	}
	res.Writes = WriteCounts{Precise: st.Writes, Baseline: st.Writes}
	res.WriteNanos = st.WriteNanos
	res.PCMNanos = sys.Clock()
	res.Sorted = true
	res.Verified = true
	if spec.ReturnKeys {
		res.Keys = sorted
	}
	return nil
}
