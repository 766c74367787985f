package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"approxsort/internal/cluster"
	"approxsort/internal/mlc"
	"approxsort/internal/verify"
)

// ShardedRequest parameterizes POST /v1/sort/sharded: one sort fanned
// across the configured shard fleet. Input forms mirror
// /v1/sort/stream — raw octet-stream body with query parameters, or a
// JSON body with a generated dataset spec.
type ShardedRequest struct {
	StreamRequest

	// Tenant is the placement identity: jobs from one tenant land on a
	// stable shard preference list on the consistent-hash ring, and the
	// per-tenant inflight quota is enforced under it. Empty is the
	// "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// MaxShards caps the fan-out below the fleet size (0 = whole fleet);
	// the coordinator's (M, B, ω, S) planner picks the actual count.
	MaxShards int `json:"max_shards,omitempty"`
	// WarmTables relays shard 0's calibrated MLC table to the rest of
	// the fleet before submitting (pcm-mlc only, best-effort).
	WarmTables bool `json:"warm_tables,omitempty"`
}

// acquireTenant claims one sharded-job slot for the tenant, failing when
// the per-tenant inflight cap is reached.
func (s *Server) acquireTenant(tenant string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tenantInflight == nil {
		s.tenantInflight = make(map[string]int)
	}
	if s.tenantInflight[tenant] >= s.cfg.TenantMaxInflight {
		return false
	}
	s.tenantInflight[tenant]++
	return true
}

func (s *Server) releaseTenant(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tenantInflight[tenant] > 1 {
		s.tenantInflight[tenant]--
	} else {
		delete(s.tenantInflight, tenant)
	}
}

// executeSharded runs one sharded job: the coordinator partitions the
// input across the shard fleet, every shard runs a verified
// approx-refine job, and the cross-shard merge flows back through the
// full audit chain (range-pinned shard streams, merged-stream checker,
// cluster ledger reconciliation).
func (s *Server) executeSharded(job *Job) (*JobResult, error) {
	spec := job.spec
	co, err := cluster.New(cluster.Config{
		Nodes:        s.cfg.ShardNodes,
		PlacementKey: spec.Tenant,
		Job: cluster.JobParams{
			Algorithm:     spec.Algorithm,
			Bits:          spec.Bits,
			Mode:          spec.Mode,
			Backend:       spec.Backend,
			Params:        spec.Params,
			Seed:          spec.Seed,
			RunSize:       spec.RunSize,
			FanIn:         spec.FanIn,
			Formation:     spec.Formation,
			RefineAtMerge: spec.RefineAtMerge,
		},
		MaxShards:  spec.MaxShards,
		TempDir:    job.dir,
		WarmTables: spec.WarmTables,
		NewAuditor: func(w io.Writer) cluster.StreamAuditor { return verify.NewStreamChecker(w) },
		WrapShard:  verify.WrapShards(),
	})
	if err != nil {
		return nil, err
	}
	// The fan-out runs under a deadline, not under the request context:
	// graceful drain promises accepted jobs completion, but a hung shard
	// node must not pin the job, its tenant slot and a worker forever.
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShardSortTimeout)
	defer cancel()
	var stats cluster.Stats
	err = s.sortFile(job, func(in io.Reader, out io.Writer) (err error) {
		if stats, err = co.Sort(ctx, in, out); err != nil {
			return err
		}
		// The coordinator already held the merged stream to the
		// StreamChecker and every shard range to its RangeReader; the
		// ledger reconciliation is the last gate before done.
		return verify.CheckClusterStats(stats).Err()
	})
	if err != nil {
		return nil, err
	}

	s.clusterShards.Add(uint64(len(stats.Shards)))
	s.clusterRecords.Add(uint64(stats.Records))

	mode := spec.Mode
	if mode == ModeAuto {
		mode = ModePrecise
		if stats.Plan != nil && stats.Plan.Sharded != nil &&
			stats.Plan.Sharded.PerShard != nil && stats.Plan.Sharded.PerShard.UseHybrid {
			mode = ModeHybrid
		}
	}
	var writeNanos float64
	for _, sh := range stats.Shards {
		writeNanos += sh.WriteNanos
	}
	writeNanos += stats.MergeWriteNanos

	res := &JobResult{
		Algorithm:  spec.Algorithm,
		Mode:       mode,
		N:          job.N,
		Backend:    spec.Backend,
		Params:     spec.point.Params,
		T:          spec.halfWidth(),
		Writes:     WriteCounts{Precise: int(stats.MergeWrites)},
		WriteNanos: writeNanos,
		Sorted:     true,
		Verified:   stats.Verified,
		Cluster:    &stats,
	}
	res.sanitize()
	return res, nil
}

// handleTablesGet serves the shared cache's calibrated MLC transition
// table for half-width t as a portable artifact, building (and caching)
// it on first request. The coordinator's table-warming relay fetches
// from one shard and installs everywhere else, so a cold fleet pays one
// calibration campaign.
func (s *Server) handleTablesGet(w http.ResponseWriter, r *http.Request) {
	const route = "/v1/tables"
	q := r.URL.Query()
	ts := q.Get("t")
	if ts == "" {
		s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: "missing t"})
		return
	}
	t, err := strconv.ParseFloat(ts, 64)
	if err != nil {
		s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: "bad t: " + err.Error()})
		return
	}
	p := mlc.Approximate(t)
	if err := p.Validate(); err != nil {
		s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	samples := 0
	if ss := q.Get("samples"); ss != "" {
		if samples, err = strconv.Atoi(ss); err != nil || samples < 0 {
			s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: "bad samples"})
			return
		}
	}
	seed := mlc.CalibrationSeed
	if ss := q.Get("seed"); ss != "" {
		if seed, err = strconv.ParseUint(ss, 10, 64); err != nil {
			s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: "bad seed"})
			return
		}
	}
	tbl := mlc.SharedTables().Get(p, samples, seed)
	s.writeJSON(w, route, http.StatusOK, tbl.Artifact(samples, seed))
}

// handleTablesPost installs a relayed table artifact into the shared
// cache. Installing an artifact that is already resident is a no-op 200;
// a fresh install returns 201.
func (s *Server) handleTablesPost(w http.ResponseWriter, r *http.Request) {
	const route = "/v1/tables"
	var a mlc.TableArtifact
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&a); err != nil {
		s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: "bad artifact: " + err.Error()})
		return
	}
	installed, err := mlc.SharedTables().Install(a)
	if err != nil {
		s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	code := http.StatusOK
	if installed {
		code = http.StatusCreated
	}
	s.writeJSON(w, route, code, map[string]bool{"installed": installed})
}
