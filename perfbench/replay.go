package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"approxsort/internal/cluster"
	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/extsort"
	"approxsort/internal/hybrid"
	"approxsort/internal/mem"
	"approxsort/internal/memmodel"
	"approxsort/internal/mlc"
	"approxsort/internal/rng"
	"approxsort/internal/server"
	"approxsort/internal/sorts"
	"approxsort/internal/verify"
)

// The traced run replays served jobs by calling each layer's public
// functions on the same inputs, with the seeds sortd derives from the
// job's coordinates, and records a span around every layer call. The
// replay must reproduce the served job's accounting bit for bit (parity),
// or it measured different work and the traced run fails.

// serverStreamQuota is sortd's default per-job disk quota, which every
// streaming job the workloads send runs under.
const serverStreamQuota = 1 << 30

// layers is one replayed job's per-layer values.
type layers map[string]float64

// spanLayers maps each span name to the per-layer time metric its self
// time counts toward. Spans not listed (the job root, the three core.Run
// variants, the extsort and shard.replay envelopes) are either fully
// covered by their children or measured as differences in replayHybrid
// and replayPrecise.
var spanLayers = map[string]string{
	"dataset": "dataset.s", "plan": "plan.s", "verify": "verify.s", "encode": "encode.s",
	"extsort.form": "extsort.form_s", "extsort.merge": "extsort.merge_s", "output.write": "extsort.merge_s",
	"cluster.sort": "cluster.s", "cluster.merge": "cluster.merge_s", "cluster.write": "cluster.merge_s",
}

// addSpanLayers adds job's span self times to v by spanLayers.
func addSpanLayers(v layers, tr *tracer, job int) {
	for name, t := range tr.selfTimes(job) {
		if m := spanLayers[name]; m != "" {
			v[m] += t
		}
	}
}

// resolvePoint normalizes a backend name and pcm-mlc half-width exactly
// as sortd does for a request.
func resolvePoint(name string, t float64) (memmodel.Backend, memmodel.Point, error) {
	b, err := memmodel.Get(name)
	if err != nil {
		return nil, memmodel.Point{}, err
	}
	pt := memmodel.Point{Backend: b.Name()}
	if t != 0 {
		pt.Params = map[string]float64{"t": t}
	}
	pt, err = b.Normalize(pt)
	return b, pt, err
}

// seedOf is rng.Split over sortd's seed coordinates: a fixed prefix, the
// backend point's coordinates, then a suffix.
func seedOf(base uint64, prefix []any, coords []any, suffix ...any) uint64 {
	parts := append(append(append([]any{}, prefix...), coords...), suffix...)
	return rng.Split(base, parts...)
}

// parity compares the replay's accounting with the served job's.
func parity(id string, served, replay *server.JobResult) error {
	type acct struct {
		Algorithm, Mode string
		Writes          server.WriteCounts
		Rem             int
		WriteNanos      float64
		PCMNanos        float64
	}
	a := acct{served.Algorithm, served.Mode, served.Writes, served.Rem, served.WriteNanos, served.PCMNanos}
	b := acct{replay.Algorithm, replay.Mode, replay.Writes, replay.Rem, replay.WriteNanos, replay.PCMNanos}
	if a != b {
		return fmt.Errorf("parity: job %s served %+v, replay %+v", id, a, b)
	}
	return nil
}

func encode(tr *tracer, job server.Job, res *server.JobResult) error {
	job.Result = res
	_, err := tr.do("encode", func() error {
		_, err := json.Marshal(job)
		return err
	})
	return err
}

// replaySort replays an in-memory job: dataset, planner pilot, the core
// pipeline bare, with its baseline, and with the Table 1 memory-system
// sinks (the served configuration), verification and response encoding.
func replaySort(tr *tracer, o outcome) (layers, error) {
	spec, served := o.spec, o.job.Result
	v := layers{}
	root := tr.begin("job")
	defer tr.end(root)

	var keys []uint32
	if _, err := tr.do("dataset", func() (err error) { keys, err = spec.keys(); return err }); err != nil {
		return nil, err
	}
	b, pt, err := resolvePoint(spec.Backend, spec.T)
	if err != nil {
		return nil, err
	}
	if spec.Algorithm != "auto" {
		return nil, fmt.Errorf("replay covers algorithm auto jobs only, got %q", spec.Algorithm)
	}
	coords := b.SeedCoords(pt)
	newSpace := func(s uint64) core.Space { return b.NewApprox(pt, s) }

	cands := sorts.AutoCandidates()
	var plan core.Plan
	if _, err := tr.do("plan", func() (err error) {
		plan, err = core.Planner{Config: core.Config{
			NewSpace: newSpace,
			Seed:     seedOf(spec.Seed, []any{"sortd", "pilot", "auto"}, coords),
		}}.PlanAuto(keys, cands)
		if err != nil {
			return err
		}
		return verify.CheckPlan(len(keys), plan).Err()
	}); err != nil {
		return nil, err
	}
	v["plan.candidates"] = float64(len(cands))
	alg, err := sorts.New(plan.Algorithm, 0)
	if err != nil {
		return nil, err
	}
	mode := spec.Mode
	if mode == server.ModeAuto {
		mode = server.ModePrecise
		if plan.UseHybrid {
			mode = server.ModeHybrid
		}
	}
	runSeed := seedOf(spec.Seed, []any{"sortd", "run", alg.Name()}, coords, len(keys))
	res := &server.JobResult{
		Algorithm: alg.Name(), Mode: mode, N: len(keys), Backend: b.Name(), Params: pt.Params, T: spec.T,
		PredictedWR: plan.PredictedWR, Sorted: true, Verified: true,
	}
	if mode == server.ModeHybrid {
		err = replayHybrid(tr, v, res, keys, alg, b, pt, runSeed)
	} else {
		err = replayPrecise(tr, v, res, keys, alg, runSeed)
	}
	if err != nil {
		return nil, err
	}
	if err := parity(o.job.ID, served, res); err != nil {
		return nil, err
	}
	if err := encode(tr, o.job, res); err != nil {
		return nil, err
	}
	v["modeled_pcm_ns_per_rec"] = res.PCMNanos / float64(len(keys))
	return v, nil
}

func memsimCounts(v layers, st hybrid.Stats) {
	v["memsim.accesses"] = float64(st.Reads + st.Writes)
	v["memsim.l1_hit_ratio"] = float64(st.L1Hits) / float64(st.Reads)
	v["memsim.mem_reads"] = float64(st.MemReads)
	v["memsim.write_stall_ns"] = st.WriteStallNanos
}

// replayHybrid times core.Run three ways — bare without baseline, bare
// with baseline, and with the memory-system sinks plus baseline (the
// served call) — so core.s, core.baseline_s and memsim.s fall out as
// differences of the same work.
func replayHybrid(tr *tracer, v layers, res *server.JobResult, keys []uint32, alg sorts.Algorithm,
	b memmodel.Backend, pt memmodel.Point, seed uint64) error {
	cfg := core.Config{
		Algorithm: alg,
		NewSpace:  func(s uint64) core.Space { return b.NewApprox(pt, s) },
		Seed:      seed,
	}
	bare := cfg
	bare.SkipBaseline = true
	idBare, err := tr.do("core.bare", func() error { _, err := core.Run(keys, bare); return err })
	if err != nil {
		return err
	}
	idBase, err := tr.do("core.baseline", func() error { _, err := core.Run(keys, cfg); return err })
	if err != nil {
		return err
	}
	sys := hybrid.New()
	sinked := cfg
	sinked.PreciseSink = sys.Region("precise", mlc.PreciseWriteNanos)
	sinked.ApproxSink = sys.Region("approx", b.ApproxWriteNanos(pt))
	var out core.Result
	idServed, err := tr.do("core.served", func() (err error) { out, err = core.Run(keys, sinked); return err })
	if err != nil {
		return err
	}
	if _, err := tr.do("verify", func() error {
		if err := verify.CheckRefineRun(keys, out, b.Identities(pt)).Err(); err != nil {
			return err
		}
		if err := verify.CheckAlgorithmWrites(alg, out.Report).Err(); err != nil {
			return err
		}
		return sys.Stats().Check()
	}); err != nil {
		return err
	}
	r := out.Report
	total := r.Total()
	res.Rem = r.RemTilde
	res.Writes = server.WriteCounts{Approx: total.Approx.Writes, Precise: total.Precise.Writes, Baseline: r.Baseline.Writes}
	res.ActualWR = r.WriteReduction()
	res.WriteNanos = total.WriteNanos()
	res.PCMNanos = sys.Clock()
	res.Keys = out.Keys

	v["core.s"] = tr.dur(idBare)
	v["core.baseline_s"] = tr.dur(idBase) - tr.dur(idBare)
	v["memsim.s"] = tr.dur(idServed) - tr.dur(idBase)
	v["core.approx_writes"] = float64(total.Approx.Writes)
	v["core.precise_writes"] = float64(total.Precise.Writes)
	v["core.baseline_writes"] = float64(r.Baseline.Writes)
	v["core.rem_tilde"] = float64(r.RemTilde)
	if total.Approx.Writes > 0 {
		v["core.ns_per_approx_write"] = 1e9 * tr.dur(idBare) / float64(total.Approx.Writes)
	}
	memsimCounts(v, sys.Stats())
	return nil
}

// replayPrecise times the precise-only sort with and without the
// memory-system sink.
func replayPrecise(tr *tracer, v layers, res *server.JobResult, keys []uint32, alg sorts.Algorithm, seed uint64) error {
	n := len(keys)
	run := func(sys *hybrid.System) (mem.Stats, []uint32) {
		space := mem.NewPreciseSpace()
		p := sorts.Pair{Keys: space.Alloc(n), IDs: space.Alloc(n)}
		mem.Load(p.Keys, keys)
		mem.Load(p.IDs, dataset.IDs(n))
		space.ResetStats()
		if sys != nil {
			space.SetSink(sys.Region("precise", mlc.PreciseWriteNanos))
		}
		alg.Sort(p, sorts.Env{KeySpace: space, IDSpace: space, R: rng.New(seed)})
		return space.Stats(), mem.PeekAll(p.Keys)
	}
	idBare, _ := tr.do("core.bare", func() error { run(nil); return nil })
	sys := hybrid.New()
	var st mem.Stats
	var sorted []uint32
	idServed, _ := tr.do("core.served", func() error { st, sorted = run(sys); return nil })
	if _, err := tr.do("verify", func() error {
		if err := verify.CheckOutput(keys, sorted).Err(); err != nil {
			return err
		}
		return sys.Stats().Check()
	}); err != nil {
		return err
	}
	res.Writes = server.WriteCounts{Precise: st.Writes, Baseline: st.Writes}
	res.WriteNanos = st.WriteNanos
	res.PCMNanos = sys.Clock()
	res.Keys = sorted

	v["core.s"] = tr.dur(idBare)
	v["memsim.s"] = tr.dur(idServed) - tr.dur(idBare)
	v["core.precise_writes"] = float64(st.Writes)
	v["core.baseline_writes"] = float64(st.Writes)
	memsimCounts(v, sys.Stats())
	return nil
}

// timedVerifier records a verify span around every per-run audit.
type timedVerifier struct {
	t *tracer
	v extsort.Verifier
}

func (tv timedVerifier) VerifyHybridRun(input []uint32, res core.Result) error {
	_, err := tv.t.do("verify", func() error { return tv.v.VerifyHybridRun(input, res) })
	return err
}

func (tv timedVerifier) VerifyPartsRun(input []uint32, parts core.Parts) error {
	_, err := tv.t.do("verify", func() error { return tv.v.VerifyPartsRun(input, parts) })
	return err
}

func (tv timedVerifier) VerifyPreciseRun(input, output []uint32) error {
	_, err := tv.t.do("verify", func() error { return tv.v.VerifyPreciseRun(input, output) })
	return err
}

// tracedExtsort runs extsort.SortStream as sortd's streaming executor
// does — per-run Auditor, output through a StreamChecker, stats
// reconciliation — with spans around the source, the audits and the
// output, and splits the sort into formation and merge at the last
// formation progress event.
func tracedExtsort(tr *tracer, cfg extsort.Config, id memmodel.Identities, src io.Reader, outPath string) (extsort.Stats, error) {
	out, err := os.Create(outPath)
	if err != nil {
		return extsort.Stats{}, err
	}
	defer os.Remove(outPath)
	sc := verify.NewStreamChecker(timedWriter{tr, "output.write", out})
	cfg.Verifier = timedVerifier{tr, verify.Auditor{ID: id}}
	ext := tr.begin("extsort")
	formEnd := tr.spans[ext].Start
	cfg.OnProgress = func(p extsort.Progress) {
		if p.Phase == "form" {
			formEnd = tr.now()
		}
	}
	stats, err := extsort.SortStream(src, timedWriter{tr, "verify", sc}, cfg)
	tr.end(ext)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return stats, err
	}
	tr.split(ext, formEnd, "extsort.form", "extsort.merge")
	_, err = tr.do("verify", func() error {
		if err := sc.Finish(stats.Records); err != nil {
			return err
		}
		return verify.CheckExtsortStats(stats).Err()
	})
	return stats, err
}

func extsortCounts(v layers, st extsort.Stats) {
	v["extsort.runs"] += float64(st.Runs)
	v["extsort.merge_passes"] = max(v["extsort.merge_passes"], float64(st.MergePasses))
	v["extsort.disk_bytes"] += float64(st.DiskBytesWritten)
}

// replayStream replays a streaming job through tracedExtsort.
func replayStream(tr *tracer, o outcome, dir string) (layers, error) {
	spec, served := o.spec, o.job.Result
	v := layers{}
	root := tr.begin("job")
	defer tr.end(root)
	alg, err := sorts.New(spec.Algorithm, 0)
	if err != nil {
		return nil, err
	}
	b, pt, err := resolvePoint(spec.Backend, spec.T)
	if err != nil {
		return nil, err
	}
	d := spec.Dataset
	src, err := dataset.StreamSpec{Kind: d.Kind, N: d.N, Seed: d.Seed, K: d.K, S: d.S}.Stream()
	if err != nil {
		return nil, err
	}
	records := int64(d.N)
	cfg := extsort.Config{
		Core: core.Config{
			Algorithm: alg,
			NewSpace:  func(s uint64) core.Space { return b.NewApprox(pt, s) },
			Seed:      seedOf(spec.Seed, []any{"sortd", "stream", alg.Name()}, b.SeedCoords(pt), uint64(records)),
		},
		RunSize:      spec.RunSize,
		FanIn:        spec.FanIn,
		TempDir:      dir,
		Formation:    extsort.FormationReplacement,
		Precise:      spec.Mode == server.ModePrecise,
		AutoPlan:     spec.Mode == server.ModeAuto,
		TotalRecords: records,
		Omega:        memmodel.WriteCostRatio(b, pt),
		MaxDiskBytes: serverStreamQuota,
	}
	stats, err := tracedExtsort(tr, cfg, b.Identities(pt), timedReader{tr, "dataset", src}, filepath.Join(dir, "replay-output.raw"))
	if err != nil {
		return nil, err
	}
	mode := server.ModePrecise
	if stats.Hybrid {
		mode = server.ModeHybrid
	}
	res := &server.JobResult{
		Algorithm: alg.Name(), Mode: mode, N: d.N, Backend: b.Name(), Params: pt.Params, T: spec.T,
		Rem: stats.RemTildeTotal, Writes: server.WriteCounts{Precise: int(stats.MergeWrites)},
		WriteNanos: stats.HybridWriteNanos + stats.MergeWriteNanos, Sorted: true, Verified: true,
	}
	if err := parity(o.job.ID, served, res); err != nil {
		return nil, err
	}
	if err := encode(tr, o.job, res); err != nil {
		return nil, err
	}
	extsortCounts(v, stats)
	v["extsort.run_len_over_m"] = stats.MeanRunLength() / float64(stats.RunSize)
	return v, nil
}

// timedAuditor is the coordinator's merged-stream auditor with the
// cluster.merge span closed when the audit seals.
type timedAuditor struct {
	t     *tracer
	sc    *verify.StreamChecker
	merge *int
}

func (a timedAuditor) Write(p []byte) (int, error) {
	var n int
	_, err := a.t.do("verify", func() (err error) { n, err = a.sc.Write(p); return err })
	return n, err
}

func (a timedAuditor) Finish(records int64) error {
	_, err := a.t.do("verify", func() error { return a.sc.Finish(records) })
	if *a.merge >= 0 {
		a.t.end(*a.merge)
	}
	return err
}

// shardRecord fetches a shard job's record from its node.
func shardRecord(client *http.Client, node, id string) (server.Job, error) {
	var job server.Job
	resp, err := client.Get(node + "/v1/jobs/" + id)
	if err != nil {
		return job, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return job, fmt.Errorf("GET shard job %s: HTTP %d", id, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	return job, err
}

// replaySharded replays a sharded job: the coordinator's whole sort over
// the workload's shard fleet (cluster.New + Coordinator.Sort with sortd's
// audit hooks), then every shard's external sort locally on the
// partition the coordinator routed to it, with the seeds the shard job
// derived.
func replaySharded(tr *tracer, o outcome, f *fleet, dir string) (layers, error) {
	spec, served := o.spec, o.job.Result
	v := layers{}
	root := tr.begin("job")
	defer tr.end(root)
	d := spec.Dataset
	src, err := dataset.StreamSpec{Kind: d.Kind, N: d.N, Seed: d.Seed, K: d.K, S: d.S}.Stream()
	if err != nil {
		return nil, err
	}
	job := cluster.JobParams{
		Algorithm: spec.Algorithm, Mode: spec.Mode, Backend: spec.Backend, T: spec.T, Seed: spec.Seed,
		RunSize: spec.RunSize, FanIn: spec.FanIn, Formation: extsort.FormationReplacement,
	}
	mergeSpan := -1
	wrap := verify.WrapShards()
	co, err := cluster.New(cluster.Config{
		Nodes:        f.shardURLs(),
		PlacementKey: "default",
		Job:          job,
		TempDir:      dir,
		WarmTables:   spec.WarmTables,
		NewAuditor: func(w io.Writer) cluster.StreamAuditor {
			return timedAuditor{tr, verify.NewStreamChecker(timedWriter{tr, "cluster.write", w}), &mergeSpan}
		},
		WrapShard: func(shard int, lo, hi uint32, expect int64, r io.Reader) io.Reader {
			if mergeSpan < 0 {
				mergeSpan = tr.begin("cluster.merge")
			}
			return wrap(shard, lo, hi, expect, r)
		},
	})
	if err != nil {
		return nil, err
	}
	outPath := filepath.Join(dir, "replay-output.raw")
	out, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	defer os.Remove(outPath)
	var stats cluster.Stats
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, err = tr.do("cluster.sort", func() (err error) {
		stats, err = co.Sort(ctx, timedReader{tr, "dataset", src}, out)
		return err
	})
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if _, err := tr.do("verify", func() error { return verify.CheckClusterStats(stats).Err() }); err != nil {
		return nil, err
	}

	mode := server.ModePrecise
	per := stats.Plan.Sharded.PerShard
	if per != nil && per.UseHybrid {
		mode = server.ModeHybrid
	}
	// Summed in sortd's order, shards then the merge, so the float
	// total is bit-identical.
	var writeNanos float64
	var maxRecords, sumRecords int64
	for _, sh := range stats.Shards {
		writeNanos += sh.WriteNanos
		sumRecords += sh.Records
		maxRecords = max(maxRecords, sh.Records)
	}
	writeNanos += stats.MergeWriteNanos
	res := &server.JobResult{
		Algorithm: spec.Algorithm, Mode: mode, N: d.N, Backend: spec.Backend, T: spec.T,
		Writes: server.WriteCounts{Precise: int(stats.MergeWrites)}, WriteNanos: writeNanos,
		Sorted: true, Verified: stats.Verified, Cluster: &stats,
	}
	if err := parity(o.job.ID, served, res); err != nil {
		return nil, err
	}
	if err := encode(tr, o.job, res); err != nil {
		return nil, err
	}

	// Shard layer: each shard's job record, then its external sort
	// replayed locally on the partition it received.
	keys, err := spec.keys()
	if err != nil {
		return nil, err
	}
	part, err := cluster.NewPartitioner(stats.Splitters)
	if err != nil {
		return nil, err
	}
	parts := make([][]byte, len(stats.Shards))
	for _, k := range keys {
		s := part.Route(k)
		parts[s] = binary.LittleEndian.AppendUint32(parts[s], k)
	}
	keys = nil
	var runLen, runSize float64
	for i, sh := range stats.Shards {
		rec, err := shardRecord(f.client, sh.Node, sh.JobID)
		if err != nil {
			return nil, err
		}
		v["cluster.shard_exec_s"] = max(v["cluster.shard_exec_s"], rec.FinishedAt.Sub(rec.StartedAt).Seconds())
		st, algName, err := replayShard(tr, spec, per, i, parts[i], dir)
		if err != nil {
			return nil, err
		}
		parts[i] = nil
		shardMode := server.ModePrecise
		if st.Hybrid {
			shardMode = server.ModeHybrid
		}
		if rec.Result == nil {
			return nil, fmt.Errorf("shard job %s has no result", rec.ID)
		}
		shardRes := &server.JobResult{
			Algorithm: algName, Mode: shardMode,
			Rem: st.RemTildeTotal, Writes: server.WriteCounts{Precise: int(st.MergeWrites)},
			WriteNanos: st.HybridWriteNanos + st.MergeWriteNanos,
		}
		if err := parity(rec.ID, rec.Result, shardRes); err != nil {
			return nil, err
		}
		extsortCounts(v, st)
		runLen += float64(st.Records)
		runSize += float64(st.Runs) * float64(st.RunSize)
	}
	v["extsort.run_len_over_m"] = runLen / runSize
	v["cluster.shard_skew"] = float64(maxRecords) * float64(len(stats.Shards)) / float64(sumRecords)
	v["cluster.merge_writes"] = float64(stats.MergeWrites)
	return v, nil
}

// replayShard re-runs shard i's streaming job locally: the parameters
// the coordinator pinned from its per-shard plan, the seed it split for
// the shard, and the seed derivation of sortd's streaming executor.
func replayShard(tr *tracer, spec jobSpec, per *core.ExternalPlan, i int, input []byte, dir string) (extsort.Stats, string, error) {
	alg, err := sorts.New("msd", 0) // sortd resolves algorithm auto to the paper's default for streams
	if err != nil {
		return extsort.Stats{}, "", err
	}
	b, pt, err := resolvePoint(spec.Backend, spec.T)
	if err != nil {
		return extsort.Stats{}, "", err
	}
	runSize, fanIn, refineAtMerge, precise := spec.RunSize, spec.FanIn, false, spec.Mode == server.ModePrecise
	if per != nil && spec.Mode == server.ModeAuto {
		runSize, fanIn, refineAtMerge, precise = per.RunSize, per.FanIn, per.RefineAtMerge, !per.UseHybrid
	}
	records := int64(len(input) / 4)
	shardSeed := rng.Split(spec.Seed, "cluster", "shard", i)
	cfg := extsort.Config{
		Core: core.Config{
			Algorithm: alg,
			NewSpace:  func(s uint64) core.Space { return b.NewApprox(pt, s) },
			Seed:      seedOf(shardSeed, []any{"sortd", "stream", alg.Name()}, b.SeedCoords(pt), uint64(records)),
		},
		RunSize:       runSize,
		FanIn:         fanIn,
		TempDir:       dir,
		Formation:     extsort.FormationReplacement,
		RefineAtMerge: refineAtMerge,
		Precise:       precise,
		TotalRecords:  records,
		Omega:         memmodel.WriteCostRatio(b, pt),
		MaxDiskBytes:  serverStreamQuota,
	}
	id := tr.begin("shard.replay")
	defer tr.end(id)
	st, err := tracedExtsort(tr, cfg, b.Identities(pt), bytes.NewReader(input), filepath.Join(dir, fmt.Sprintf("replay-shard-%d.raw", i)))
	return st, alg.Name(), err
}
