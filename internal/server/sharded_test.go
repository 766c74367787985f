package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"approxsort/internal/dataset"
	"approxsort/internal/mlc"
)

// shardFleet starts n shard sortd instances plus one coordinator
// configured over them.
func shardFleet(t *testing.T, n int, cfg Config) (*Server, string) {
	t.Helper()
	nodes := make([]string, n)
	for i := range nodes {
		_, ts := streamServer(t, Config{Workers: 2, QueueDepth: 8})
		nodes[i] = ts.URL
	}
	cfg.ShardNodes = nodes
	co, ts := streamServer(t, cfg)
	return co, ts.URL
}

func TestSortShardedEndToEnd(t *testing.T) {
	_, url := shardFleet(t, 3, Config{Workers: 2, QueueDepth: 8})
	keys := dataset.Uniform(60000, 9)

	resp := postOctet(t, url+"/v1/sort/sharded?wait=1&run_size=8000&seed=13&t=0.07&mode=auto&tenant=acme&warm_tables=true",
		encodeKeys(keys))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	job := decodeJob(t, resp)
	if job.Status != StatusDone {
		t.Fatalf("job status = %q (error %q)", job.Status, job.Error)
	}
	if job.Kind != KindSharded {
		t.Errorf("job kind = %q", job.Kind)
	}
	res := job.Result
	if res == nil || res.Cluster == nil {
		t.Fatalf("missing cluster result: %+v", res)
	}
	if !res.Verified || !res.Sorted || !res.Cluster.Verified {
		t.Errorf("verified=%v sorted=%v cluster=%v", res.Verified, res.Sorted, res.Cluster.Verified)
	}
	if len(res.Cluster.Shards) < 2 {
		t.Errorf("fan-out = %d shards, want >= 2", len(res.Cluster.Shards))
	}
	if res.Cluster.Records != 60000 || res.Cluster.MergeWrites != 60000 {
		t.Errorf("records=%d merge_writes=%d", res.Cluster.Records, res.Cluster.MergeWrites)
	}
	if !res.Cluster.TableWarmed {
		t.Errorf("table relay did not run: %s", res.Cluster.TableWarmError)
	}
	for i, sh := range res.Cluster.Shards {
		if !sh.Verified || sh.JobID == "" {
			t.Errorf("shard %d: verified=%v job=%q", i, sh.Verified, sh.JobID)
		}
	}

	out, err := http.Get(url + "/v1/jobs/" + job.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Body.Close()
	if out.StatusCode != http.StatusOK {
		t.Fatalf("output status = %d", out.StatusCode)
	}
	data, err := io.ReadAll(out.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4*len(keys) {
		t.Fatalf("output is %d bytes, want %d", len(data), 4*len(keys))
	}
	var prev uint32
	for i := 0; i < len(keys); i++ {
		k := binary.LittleEndian.Uint32(data[4*i:])
		if i > 0 && k < prev {
			t.Fatalf("merged output unsorted at %d", i)
		}
		prev = k
	}
}

func TestSortShardedDatasetForm(t *testing.T) {
	_, url := shardFleet(t, 2, Config{Workers: 2, QueueDepth: 8})
	resp := postJSON(t, url+"/v1/sort/sharded?wait=1", ShardedRequest{
		StreamRequest: StreamRequest{
			Dataset: &DatasetSpec{Kind: "zipf", N: 40000, K: 4096, S: 1.2, Seed: 7},
			RunSize: 6000,
			T:       0.07,
			Seed:    21,
		},
		MaxShards: 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	job := decodeJob(t, resp)
	if job.Status != StatusDone {
		t.Fatalf("job status = %q (error %q)", job.Status, job.Error)
	}
	res := job.Result
	if res == nil || res.Cluster == nil || !res.Cluster.Verified {
		t.Fatalf("cluster result missing or unverified: %+v", res)
	}
	if res.Cluster.Records != 40000 {
		t.Errorf("records = %d", res.Cluster.Records)
	}
}

func TestSortShardedNotConfigured(t *testing.T) {
	_, ts := streamServer(t, Config{Workers: 1, QueueDepth: 2})
	resp := postOctet(t, ts.URL+"/v1/sort/sharded", encodeKeys([]uint32{3, 1, 2}))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", resp.StatusCode)
	}
}

func TestSortShardedTenantQuota(t *testing.T) {
	s, url := shardFleet(t, 1, Config{Workers: 2, QueueDepth: 8, TenantMaxInflight: 1})
	started := make(chan struct{}, 2)
	block := make(chan struct{})
	s.testHookBeforeExec = func(*Job) { started <- struct{}{}; <-block }

	keys := encodeKeys(dataset.Uniform(2000, 1))
	// First job occupies tenant alice's only slot.
	resp := postOctet(t, url+"/v1/sort/sharded?seed=3&t=0.07&tenant=alice", keys)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d", resp.StatusCode)
	}
	first := decodeJob(t, resp)
	<-started

	// Same tenant: rejected with backpressure before the queue.
	resp = postOctet(t, url+"/v1/sort/sharded?seed=4&t=0.07&tenant=alice", keys)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("same-tenant status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	resp.Body.Close()

	// A different tenant is unaffected.
	resp = postOctet(t, url+"/v1/sort/sharded?seed=5&t=0.07&tenant=bob", keys)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other-tenant status = %d, want 202", resp.StatusCode)
	}
	second := decodeJob(t, resp)
	<-started
	close(block)

	// Both jobs finish and release their slots; alice can submit again.
	for _, id := range []string{first.ID, second.ID} {
		waitJobDone(t, url, id)
	}
	resp = postOctet(t, url+"/v1/sort/sharded?seed=6&t=0.07&tenant=alice", keys)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-release status = %d, want 202", resp.StatusCode)
	}
	job := decodeJob(t, resp)
	waitJobDone(t, url, job.ID)
}

func waitJobDone(t *testing.T, url, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second) //nolint:detrand // test timeout
	for {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		job := decodeJob(t, resp)
		switch job.Status {
		case StatusDone:
			return
		case StatusFailed:
			t.Fatalf("job %s failed: %s", id, job.Error)
		}
		if time.Now().After(deadline) { //nolint:detrand // test timeout
			t.Fatalf("job %s still %s", id, job.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestTablesArtifactRelay(t *testing.T) {
	_, a := streamServer(t, Config{Workers: 1, QueueDepth: 2})
	_, b := streamServer(t, Config{Workers: 1, QueueDepth: 2})

	resp, err := http.Get(a.URL + "/v1/tables?t=0.07")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch status = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var art mlc.TableArtifact
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatal(err)
	}
	if err := art.Validate(); err != nil {
		t.Fatalf("served artifact invalid: %v", err)
	}

	// Both servers share the process-global cache in tests, so the
	// install is a no-op 200; the handler contract (decode, validate,
	// idempotent install) is what's under test here.
	resp = postOctet2(t, b.URL+"/v1/tables", "application/json", raw)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		t.Fatalf("install status = %d", resp.StatusCode)
	}
	var out map[string]bool
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}

	// Garbage and missing parameters are 400s.
	resp = postOctet2(t, b.URL+"/v1/tables", "application/json", []byte(`{"params":{}}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad artifact status = %d", resp.StatusCode)
	}
	resp, err = http.Get(a.URL + "/v1/tables")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing-t status = %d", resp.StatusCode)
	}
}

func postOctet2(t *testing.T, url, contentType string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestSortShardedBadRequests(t *testing.T) {
	_, url := shardFleet(t, 1, Config{Workers: 1, QueueDepth: 4})
	keys := encodeKeys(dataset.Uniform(10, 1))

	octetCases := map[string]string{
		"bad stream param": "?run_size=abc",
		"bad max_shards":   "?max_shards=abc",
		"bad warm_tables":  "?warm_tables=nope",
	}
	for name, query := range octetCases {
		resp := postOctet(t, url+"/v1/sort/sharded"+query, keys)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}

	resp := postOctet(t, url+"/v1/sort/sharded?t=0.07", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty input: status = %d, want 400", resp.StatusCode)
	}

	resp = postOctet(t, url+"/v1/sort/sharded?t=0.07&max_disk_bytes=4", keys)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over quota: status = %d, want 413", resp.StatusCode)
	}

	resp = postOctet2(t, url+"/v1/sort/sharded", "application/json", []byte("{"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json: status = %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, url+"/v1/sort/sharded", ShardedRequest{
		StreamRequest: StreamRequest{Dataset: &DatasetSpec{Kind: "uniform", N: 100}, T: 0.07},
		MaxShards:     -1,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative max_shards: status = %d, want 400", resp.StatusCode)
	}
}

func TestSortShardedDrainingRejects(t *testing.T) {
	s, url := shardFleet(t, 1, Config{Workers: 1, QueueDepth: 2})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp := postOctet(t, url+"/v1/sort/sharded?t=0.07", encodeKeys([]uint32{2, 1}))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", resp.StatusCode)
	}
}

func TestSortShardedQueueFull(t *testing.T) {
	s, url := shardFleet(t, 1, Config{Workers: 1, QueueDepth: 1, TenantMaxInflight: 8})
	started := make(chan struct{}, 8)
	block := make(chan struct{})
	s.testHookBeforeExec = func(*Job) { started <- struct{}{}; <-block }

	keys := encodeKeys(dataset.Uniform(500, 1))
	first := decodeJob(t, postOctet(t, url+"/v1/sort/sharded?t=0.07&tenant=a", keys))
	<-started // the lone worker is now parked
	second := decodeJob(t, postOctet(t, url+"/v1/sort/sharded?t=0.07&tenant=b", keys))

	resp := postOctet(t, url+"/v1/sort/sharded?t=0.07&tenant=c", keys)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full status = %d, want 429", resp.StatusCode)
	}

	close(block)
	waitJobDone(t, url, first.ID)
	waitJobDone(t, url, second.ID)
}

func TestSortShardedShardDownFailsJob(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	_, ts := streamServer(t, Config{Workers: 1, QueueDepth: 2, ShardNodes: []string{dead.URL}})

	resp := postOctet(t, ts.URL+"/v1/sort/sharded?wait=1&t=0.07", encodeKeys(dataset.Uniform(1000, 1)))
	job := decodeJob(t, resp)
	if job.Status != StatusFailed {
		t.Fatalf("job status = %q, want failed", job.Status)
	}
	if job.Error == "" {
		t.Error("failed job carries no error")
	}
}

// TestSortShardedTimeoutFailsJob pins the ShardSortTimeout contract: a
// shard node that accepts the connection and then hangs must fail the
// job within the configured fan-out deadline instead of pinning the
// worker and its tenant slot forever. Before the deadline existed, the
// fan-out ran on context.Background() and this test hung.
func TestSortShardedTimeoutFailsJob(t *testing.T) {
	release := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The submit POST's body is never read here, which suppresses
		// net/http's client-disconnect detection — r.Context() alone
		// would pin the conn past hang.Close(). The release channel
		// lets the handler return once the assertion is done.
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer hang.Close()
	defer close(release)
	_, ts := streamServer(t, Config{
		Workers: 1, QueueDepth: 2,
		ShardNodes:       []string{hang.URL},
		ShardSortTimeout: 200 * time.Millisecond,
	})

	start := time.Now()
	resp := postOctet(t, ts.URL+"/v1/sort/sharded?wait=1&t=0.07", encodeKeys(dataset.Uniform(1000, 1)))
	job := decodeJob(t, resp)
	if job.Status != StatusFailed {
		t.Fatalf("job status = %q, want failed", job.Status)
	}
	if job.Error == "" {
		t.Error("timed-out job carries no error")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("fan-out abandoned after %v, want the 200ms deadline to cut it", elapsed)
	}
}

func TestTablesQueryParams(t *testing.T) {
	_, ts := streamServer(t, Config{Workers: 1, QueueDepth: 2})

	resp, err := http.Get(ts.URL + "/v1/tables?t=0.07&samples=64&seed=9")
	if err != nil {
		t.Fatal(err)
	}
	var art mlc.TableArtifact
	if err := json.NewDecoder(resp.Body).Decode(&art); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || art.Samples != 64 || art.Seed != 9 {
		t.Fatalf("status=%d samples=%d seed=%d", resp.StatusCode, art.Samples, art.Seed)
	}

	for name, query := range map[string]string{
		"unparsable t": "?t=abc",
		"invalid t":    "?t=-1",
		"bad samples":  "?t=0.07&samples=-3",
		"bad seed":     "?t=0.07&seed=abc",
	} {
		resp, err := http.Get(ts.URL + "/v1/tables" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}

	resp = postOctet2(t, ts.URL+"/v1/tables", "application/json", []byte("{"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated artifact: status = %d, want 400", resp.StatusCode)
	}
}

func TestDatasetSpecMaterializeKinds(t *testing.T) {
	for _, spec := range []DatasetSpec{
		{Kind: "uniform", N: 50, Seed: 1},
		{Kind: "sorted", N: 50},
		{Kind: "reverse", N: 50},
		{Kind: "nearlysorted", N: 50, Swaps: 5, Seed: 1},
		{Kind: "fewdistinct", N: 50, Seed: 1}, // k defaults
		{Kind: "zipf", N: 50, Seed: 1},        // k and s default
	} {
		keys, err := spec.materialize()
		if err != nil {
			t.Errorf("%s: %v", spec.Kind, err)
			continue
		}
		if len(keys) != spec.N {
			t.Errorf("%s: %d keys, want %d", spec.Kind, len(keys), spec.N)
		}
	}
	if _, err := (&DatasetSpec{Kind: "uniform", N: -1}).materialize(); err == nil {
		t.Error("negative n materialized")
	}
	if _, err := (&DatasetSpec{Kind: "bogus", N: 5}).materialize(); err == nil {
		t.Error("unknown kind materialized")
	}
}

func TestJobResultSanitizeClampsNonFinite(t *testing.T) {
	r := &JobResult{
		PredictedWR: math.NaN(),
		ActualWR:    math.Inf(1),
		WriteNanos:  math.Inf(-1),
		Plan:        &PlanView{PredictedWR: math.NaN(), P: math.Inf(1), PilotRemRatio: math.Inf(-1)},
	}
	r.sanitize()
	if _, err := json.Marshal(r); err != nil {
		t.Fatalf("sanitized result not encodable: %v", err)
	}
	if r.PredictedWR != 0 || r.ActualWR != math.MaxFloat64 || r.WriteNanos != -math.MaxFloat64 {
		t.Errorf("clamps wrong: %+v", r)
	}
}

func TestSortRequestAlgorithmNames(t *testing.T) {
	for name, want := range map[string]string{
		"lsd": "6-bit LSD", "quicksort": "Quicksort", "mergesort": "Mergesort", "auto": "6-bit MSD",
	} {
		spec := normalizedSpec(t, streamClass, &StreamRequest{
			Dataset: &DatasetSpec{N: 10}, Algorithm: name, Bits: 6,
		})
		if spec.alg.Name() != want {
			t.Errorf("%s resolved to %s", name, spec.alg.Name())
		}
	}
	spec := (&SortRequest{Keys: []uint32{1}, Algorithm: "bogosort"}).spec()
	spec.class = sortClass
	if err := spec.normalize(Config{}.withDefaults()); err == nil {
		t.Error("unknown algorithm resolved")
	}
}

// shardedJob runs one JSON-form sharded job to completion on a fresh
// 2-shard fleet and returns its record.
func shardedJob(t *testing.T, req ShardedRequest) Job {
	t.Helper()
	_, url := shardFleet(t, 2, Config{Workers: 2, QueueDepth: 8})
	job := decodeJob(t, postJSON(t, url+"/v1/sort/sharded?wait=1", req))
	if job.Status != StatusDone || job.Result == nil || job.Result.Cluster == nil {
		t.Fatalf("job status = %q (error %q)", job.Status, job.Error)
	}
	if !job.Result.Verified {
		t.Fatalf("sharded job not verified: %+v", job.Result)
	}
	return job
}

// TestSortShardedRegistryAlgorithm: the coordinator's pilot resolves
// algorithm names through the same registry as the shards, so any
// registered algorithm runs sharded.
func TestSortShardedRegistryAlgorithm(t *testing.T) {
	shardedJob(t, ShardedRequest{StreamRequest: StreamRequest{
		Dataset:   &DatasetSpec{Kind: "uniform", N: 40000, Seed: 3},
		Algorithm: "onesweep-lsd",
		Mode:      ModeHybrid,
		RunSize:   6000,
		Seed:      5,
	}})
}

// TestSortShardedForwardsParams: a sharded job's backend parameters
// reach every shard job, whose own record echoes them.
func TestSortShardedForwardsParams(t *testing.T) {
	job := shardedJob(t, ShardedRequest{StreamRequest: StreamRequest{
		Dataset: &DatasetSpec{Kind: "uniform", N: 40000, Seed: 3},
		Backend: "spintronic",
		Params:  map[string]float64{"saving": 0.5},
		Mode:    ModeHybrid,
		RunSize: 6000,
		Seed:    5,
	}})
	if got := job.Result.Params["saving"]; got != 0.5 {
		t.Fatalf("coordinator record saving = %v, want 0.5", got)
	}
	for i, sh := range job.Result.Cluster.Shards {
		resp, err := http.Get(sh.Node + "/v1/jobs/" + sh.JobID)
		if err != nil {
			t.Fatal(err)
		}
		rec := decodeJob(t, resp)
		if rec.Result == nil || !reflect.DeepEqual(rec.Result.Params, job.Result.Params) {
			t.Errorf("shard %d (%s) ran at %+v, want params %v", i, sh.JobID, rec.Result, job.Result.Params)
		}
	}
}
