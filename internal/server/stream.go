package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/extsort"
	"approxsort/internal/memmodel"
	"approxsort/internal/rng"
	"approxsort/internal/verify"
)

// StreamRequest parameterizes POST /v1/sort/stream. Two input forms:
//
//   - Content-Type: application/octet-stream — the body is the raw
//     little-endian uint32 key stream, spooled to the job's directory
//     (against its disk quota) before the job is enqueued; each field
//     below except Dataset arrives as the query parameter of its JSON
//     name, and Params as one params.<name> parameter per entry.
//   - any other Content-Type — this struct as a JSON body, with a
//     Dataset spec generated server-side as a stream (no materialized
//     array), so load tests can drive out-of-core sizes without shipping
//     gigabytes.
type StreamRequest struct {
	// Dataset generates the input server-side (JSON form only). Must be
	// a streamable kind: nearlysorted is rejected.
	Dataset *DatasetSpec `json:"dataset,omitempty"`

	// Algorithm/Bits/Mode/Backend/Params/T/Seed as in SortRequest. Mode
	// auto consults the (M, B, ω) external planner: the pilot decides
	// hybrid vs precise formation, run size, fan-in, and whether to
	// defer refine step 3 into the merge.
	Algorithm string             `json:"algorithm,omitempty"`
	Bits      int                `json:"bits,omitempty"`
	Mode      string             `json:"mode,omitempty"`
	Backend   string             `json:"backend,omitempty"`
	Params    map[string]float64 `json:"params,omitempty"`
	T         float64            `json:"t,omitempty"`
	Seed      uint64             `json:"seed,omitempty"`

	// RunSize is the in-memory run budget M in records (default 1M);
	// FanIn the merge width cap (default 16). Under mode auto these act
	// as the planner's M and fan-in ceiling.
	RunSize int `json:"run_size,omitempty"`
	FanIn   int `json:"fan_in,omitempty"`
	// Formation picks run formation: replacement (default) or chunk.
	Formation string `json:"formation,omitempty"`
	// RefineAtMerge defers each run's refine merge into the k-way merge.
	RefineAtMerge bool `json:"refine_at_merge,omitempty"`
	// MaxDiskBytes lowers the per-job disk quota below the server cap.
	MaxDiskBytes int64 `json:"max_disk_bytes,omitempty"`
}

// JobProgress is a streaming job's point-in-time progress, refreshed by
// the worker as the sort advances and served in GET /v1/jobs/{id}.
type JobProgress struct {
	// Phase: form (reading input, forming runs) or merge.
	Phase string `json:"phase"`
	// Records ingested so far; Runs formed so far.
	Records int64 `json:"records"`
	Runs    int   `json:"runs"`
	// Pass is the current merge level (1-based); MergedRecords counts
	// records written in that pass.
	Pass          int   `json:"pass,omitempty"`
	MergedRecords int64 `json:"merged_records,omitempty"`
	// DiskBytes is the live spill footprint.
	DiskBytes int64 `json:"disk_bytes"`
}

// ExtsortView is the external-sort section of a streaming job's result.
type ExtsortView struct {
	Records       int64   `json:"records"`
	Runs          int     `json:"runs"`
	MeanRunLength float64 `json:"mean_run_length"`
	MergePasses   int     `json:"merge_passes"`
	Formation     string  `json:"formation"`
	RefineAtMerge bool    `json:"refine_at_merge"`
	RunSize       int     `json:"run_size"`
	FanIn         int     `json:"fan_in"`
	// RemTilde is the summed refine remainder over all runs.
	RemTilde int `json:"rem_tilde"`
	// Disk ledger: cumulative spill volume and peak live footprint.
	DiskBytesWritten int64 `json:"disk_bytes_written"`
	DiskHighWater    int64 `json:"disk_high_water"`
	// Charged write latency split: run formation vs merge staging.
	FormationWriteNanos float64 `json:"formation_write_nanos"`
	MergeWriteNanos     float64 `json:"merge_write_nanos"`
	// Plan is the (M, B, ω) planner verdict (mode auto only).
	Plan *core.ExternalPlan `json:"plan,omitempty"`
}

// spoolInput copies the upload to path, enforcing word alignment and the
// quota, and returns the byte count.
func spoolInput(path string, body io.Reader, quota int64) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := io.Copy(f, body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return 0, fmt.Errorf("%w: upload exceeds the job quota %d", extsort.ErrDiskQuota, quota)
		}
		return 0, fmt.Errorf("reading upload: %w", err)
	}
	if quota > 0 && n > quota {
		return 0, fmt.Errorf("%w: upload of %d bytes exceeds the job quota %d", extsort.ErrDiskQuota, n, quota)
	}
	if n%4 != 0 {
		return 0, fmt.Errorf("upload of %d bytes is not a whole number of uint32 records", n)
	}
	return n, nil
}

// executeStream runs one streaming job: spooled upload or generated
// dataset in, verified sorted stream out, with the full audit chain
// (per-run Auditor, output StreamChecker, stats reconciliation) standing
// between the sort and a done status.
func (s *Server) executeStream(job *Job) (*JobResult, error) {
	spec := job.spec
	b, pt, alg := spec.backend, spec.point, spec.alg

	seedParts := append([]any{"sortd", "stream", alg.Name()}, b.SeedCoords(pt)...)
	seedParts = append(seedParts, uint64(job.records))
	cfg := extsort.Config{
		Core: core.Config{
			Algorithm: alg,
			NewSpace:  func(sd uint64) core.Space { return b.NewApprox(pt, sd) },
			Seed:      rng.Split(spec.Seed, seedParts...),
		},
		RunSize:       spec.RunSize,
		FanIn:         spec.FanIn,
		TempDir:       job.dir,
		Formation:     spec.Formation,
		RefineAtMerge: spec.RefineAtMerge,
		Precise:       spec.Mode == ModePrecise,
		AutoPlan:      spec.Mode == ModeAuto,
		TotalRecords:  job.records,
		Omega:         memmodel.WriteCostRatio(b, pt),
		MaxDiskBytes:  spec.MaxDiskBytes,
		Verifier:      verify.Auditor{ID: b.Identities(pt)},
		OnProgress: func(p extsort.Progress) {
			s.mu.Lock()
			job.Progress = &JobProgress{
				Phase: p.Phase, Records: p.Records, Runs: p.Runs,
				Pass: p.Pass, MergedRecords: p.MergedRecords, DiskBytes: p.DiskBytes,
			}
			s.mu.Unlock()
		},
	}
	var stats extsort.Stats
	err := s.sortFile(job, func(in io.Reader, out io.Writer) (err error) {
		// The audit chain behind Verified: every run was checked by the
		// Auditor at formation time; the output stream must be monotone
		// and conserve the record count; the totals must reconcile per-run.
		sc := verify.NewStreamChecker(out)
		if stats, err = extsort.SortStream(in, sc, cfg); err != nil {
			return err
		}
		if err := sc.Finish(stats.Records); err != nil {
			return err
		}
		return verify.CheckExtsortStats(stats).Err()
	})
	if err != nil {
		return nil, err
	}

	s.extsortRecords.Add(uint64(stats.Records))
	s.extsortRuns.Add(uint64(stats.Runs))
	s.extsortMergePasses.Add(uint64(stats.MergePasses))
	s.extsortSpillBytes.Add(uint64(stats.DiskBytesWritten))

	mode := ModePrecise
	if stats.Hybrid {
		mode = ModeHybrid
	}
	res := &JobResult{
		Algorithm: alg.Name(),
		Mode:      mode,
		N:         job.N,
		Backend:   b.Name(),
		Params:    pt.Params,
		T:         spec.halfWidth(),
		Rem:       stats.RemTildeTotal,
		Writes: WriteCounts{
			Precise: int(stats.MergeWrites),
		},
		WriteNanos: stats.HybridWriteNanos + stats.MergeWriteNanos,
		Sorted:     true,
		Verified:   true,
		Extsort: &ExtsortView{
			Records:             stats.Records,
			Runs:                stats.Runs,
			MeanRunLength:       stats.MeanRunLength(),
			MergePasses:         stats.MergePasses,
			Formation:           stats.Formation,
			RefineAtMerge:       stats.RefineAtMerge,
			RunSize:             stats.RunSize,
			FanIn:               stats.FanIn,
			RemTilde:            stats.RemTildeTotal,
			DiskBytesWritten:    stats.DiskBytesWritten,
			DiskHighWater:       stats.DiskHighWater,
			FormationWriteNanos: stats.HybridWriteNanos,
			MergeWriteNanos:     stats.MergeWriteNanos,
			Plan:                stats.Plan,
		},
	}
	res.sanitize()
	return res, nil
}

// sortFile is a disk-class job's input and output: sort reads the
// generated dataset stream or the spooled upload and writes the job's
// output.raw under its disk quota, returning once its audit chain has
// passed. The spool is then reclaimed and the output published for
// download.
func (s *Server) sortFile(job *Job, sort func(in io.Reader, out io.Writer) error) error {
	var in io.Reader
	if d := job.spec.Dataset; d != nil {
		var err error
		in, err = dataset.StreamSpec{Kind: d.Kind, N: d.N, Seed: d.Seed, K: d.K, S: d.S}.Stream()
		if err != nil {
			return err
		}
	} else {
		f, err := os.Open(filepath.Join(job.dir, "input.raw"))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	f, err := os.Create(filepath.Join(job.dir, "output.raw"))
	if err != nil {
		return err
	}
	out := &quotaWriter{w: f, max: job.spec.MaxDiskBytes}
	if err := sort(in, out); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	os.Remove(filepath.Join(job.dir, "input.raw")) // reclaim the spool
	s.mu.Lock()
	job.OutputBytes = out.n
	s.mu.Unlock()
	return nil
}

// quotaWriter enforces the job quota on the final output file, which the
// extsort disk tracker does not see (it only tracks intermediate spill).
type quotaWriter struct {
	w   io.Writer
	n   int64
	max int64
}

func (q *quotaWriter) Write(p []byte) (int, error) {
	q.n += int64(len(p))
	if q.max > 0 && q.n > q.max {
		return 0, fmt.Errorf("%w: output of %d bytes exceeds the job quota %d", extsort.ErrDiskQuota, q.n, q.max)
	}
	return q.w.Write(p)
}

// handleJobOutput streams a finished streaming job's sorted output.
func (s *Server) handleJobOutput(w http.ResponseWriter, r *http.Request) {
	const route = "/v1/jobs/output"
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	var status, dir string
	var size int64
	if ok {
		status, dir, size = job.Status, job.dir, job.OutputBytes
	}
	kindOK := ok && (job.Kind == KindStream || job.Kind == KindSharded)
	s.mu.Unlock()
	if !ok {
		s.writeJSON(w, route, http.StatusNotFound, apiError{Error: "unknown job " + id})
		return
	}
	if !kindOK {
		s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: "job " + id + " has no downloadable output"})
		return
	}
	if status != StatusDone {
		s.writeJSON(w, route, http.StatusConflict, apiError{Error: "job " + id + " is " + status})
		return
	}
	f, err := os.Open(filepath.Join(dir, "output.raw"))
	if err != nil {
		s.writeJSON(w, route, http.StatusGone, apiError{Error: "output no longer available"})
		return
	}
	defer f.Close()
	s.requests.With(route, "200").Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	io.Copy(w, f)
}
