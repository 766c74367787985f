package cluster_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"approxsort/internal/cluster"
	"approxsort/internal/dataset"
	"approxsort/internal/rng"
	"approxsort/internal/server"
	"approxsort/internal/verify"
)

func encode(keys []uint32) []byte {
	out := make([]byte, 4*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint32(out[4*i:], k)
	}
	return out
}

func decode(t *testing.T, raw []byte) []uint32 {
	t.Helper()
	if len(raw)%4 != 0 {
		t.Fatalf("output of %d bytes is not word-aligned", len(raw))
	}
	keys := make([]uint32, len(raw)/4)
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	return keys
}

// startShards spins up n in-process sortd instances and returns their
// base URLs.
func startShards(t *testing.T, n int) []string {
	t.Helper()
	nodes := make([]string, n)
	for i := range nodes {
		s := server.New(server.Config{Workers: 2, StreamDir: t.TempDir()})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { s.Shutdown(context.Background()) })
		nodes[i] = ts.URL
	}
	return nodes
}

func auditorHook(w io.Writer) cluster.StreamAuditor { return verify.NewStreamChecker(w) }

func TestCoordinatorSortAcrossShards(t *testing.T) {
	nodes := startShards(t, 3)
	co, err := cluster.New(cluster.Config{
		Nodes:      nodes,
		Job:        cluster.JobParams{Mode: "auto", T: 0.07, Seed: 41},
		MemBudget:  1 << 14, // out-of-core at this size, so the planner fans out
		TempDir:    t.TempDir(),
		NewAuditor: auditorHook,
		WrapShard:  verify.WrapShards(),
	})
	if err != nil {
		t.Fatal(err)
	}

	keys := dataset.Uniform(150000, 17)
	var out bytes.Buffer
	stats, err := co.Sort(context.Background(), bytes.NewReader(encode(keys)), &out)
	if err != nil {
		t.Fatal(err)
	}

	want := append([]uint32(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := decode(t, out.Bytes())
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged output wrong at %d: %d != %d", i, got[i], want[i])
		}
	}

	if !stats.Verified {
		t.Error("Stats.Verified = false")
	}
	if stats.Plan == nil || stats.Plan.Sharded == nil {
		t.Fatal("no sharded plan in stats")
	}
	if got, want := len(stats.Shards), stats.Plan.Sharded.Shards; got != want {
		t.Errorf("ran %d shards, plan chose %d", got, want)
	}
	if len(stats.Shards) < 2 {
		t.Errorf("coordinator did not fan out: %d shards", len(stats.Shards))
	}
	for i, sh := range stats.Shards {
		if !sh.Verified {
			t.Errorf("shard %d not verified", i)
		}
		if sh.JobID == "" || sh.Node == "" {
			t.Errorf("shard %d missing identity: %+v", i, sh)
		}
	}
	if err := verify.CheckClusterStats(stats).Err(); err != nil {
		t.Errorf("cluster ledger: %v", err)
	}
}

func TestCoordinatorDeterministicSplitters(t *testing.T) {
	nodes := startShards(t, 2)
	run := func() cluster.Stats {
		co, err := cluster.New(cluster.Config{
			Nodes:     nodes,
			Job:       cluster.JobParams{Mode: "hybrid", T: 0.07, Seed: 5},
			MemBudget: 1 << 13,
			MaxShards: 2,
			TempDir:   t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		keys := dataset.Uniform(60000, 3)
		var out bytes.Buffer
		stats, err := co.Sort(context.Background(), bytes.NewReader(encode(keys)), &out)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if fmt.Sprint(a.Splitters) != fmt.Sprint(b.Splitters) {
		t.Fatalf("splitters diverged: %v vs %v", a.Splitters, b.Splitters)
	}
	for i := range a.Shards {
		if a.Shards[i].Records != b.Shards[i].Records {
			t.Fatalf("partition diverged at shard %d: %d vs %d",
				i, a.Shards[i].Records, b.Shards[i].Records)
		}
	}
}

// fakeShard accepts submissions and reports jobs running forever; kill
// closes it mid-job.
type fakeShard struct {
	ts     *httptest.Server
	polled chan struct{} // closed on first poll
	once   sync.Once
}

func newFakeShard() *fakeShard {
	f := &fakeShard{polled: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sort/stream", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": "job-00000001", "status": "queued"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.once.Do(func() { close(f.polled) })
		json.NewEncoder(w).Encode(map[string]string{"id": r.PathValue("id"), "status": "running"})
	})
	f.ts = httptest.NewServer(mux)
	return f
}

func TestCoordinatorKilledShardSurfacesTypedError(t *testing.T) {
	shards := []*fakeShard{newFakeShard(), newFakeShard(), newFakeShard()}
	nodes := make([]string, len(shards))
	for i, f := range shards {
		nodes[i] = f.ts.URL
		t.Cleanup(f.ts.Close)
	}
	co, err := cluster.New(cluster.Config{
		Nodes: nodes,
		Job:   cluster.JobParams{Mode: "hybrid", T: 0.07, Seed: 9},
		// Fakes never sort, so skip planning surprises: tiny input, all
		// shards forced.
		MemBudget: 1 << 11,
		TempDir:   t.TempDir(),
		NewClient: func(node string) *cluster.Client {
			return &cluster.Client{Node: node, PollInterval: 5 * time.Millisecond}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the first fake that gets polled, mid-job.
	killed := make(chan string, 1)
	go func() {
		cases := make([]chan struct{}, len(shards))
		for i, f := range shards {
			cases[i] = f.polled
		}
		for {
			for i, ch := range cases {
				select {
				case <-ch:
					shards[i].ts.CloseClientConnections()
					shards[i].ts.Close()
					killed <- nodes[i]
					return
				default:
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	keys := dataset.Uniform(20000, 11)
	var out bytes.Buffer
	_, err = co.Sort(ctx, bytes.NewReader(encode(keys)), &out)
	if err == nil {
		t.Fatal("coordinator succeeded against dead shard")
	}
	if ctx.Err() != nil {
		t.Fatalf("coordinator hung until the deadline: %v", err)
	}
	var se *cluster.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *cluster.ShardError", err, err)
	}
	deadNode := <-killed
	if se.Node != deadNode {
		t.Fatalf("ShardError names %s, killed %s", se.Node, deadNode)
	}
	if se.Stage != "poll" && se.Stage != "job" {
		t.Fatalf("ShardError stage = %q", se.Stage)
	}
}

func TestClientSubmitRetriesOn429(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sort/stream", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full, retry later"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": "job-00000002"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl := &cluster.Client{Node: ts.URL}
	id, err := cl.Submit(context.Background(), cluster.JobParams{Seed: 1}, func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(encode([]uint32{3, 1, 2}))), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-00000002" {
		t.Fatalf("job id = %q", id)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one 429, one accept)", attempts)
	}
}

func TestCoordinatorWarmsTableFleet(t *testing.T) {
	nodes := startShards(t, 3)
	co, err := cluster.New(cluster.Config{
		Nodes:      nodes,
		Job:        cluster.JobParams{Mode: "auto", T: 0.07, Seed: 51},
		MemBudget:  1 << 13,
		TempDir:    t.TempDir(),
		WarmTables: true,
		NewAuditor: auditorHook,
		WrapShard:  verify.WrapShards(),
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := dataset.Uniform(50000, 19)
	var out bytes.Buffer
	stats, err := co.Sort(context.Background(), bytes.NewReader(encode(keys)), &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Shards) < 2 {
		t.Fatalf("fan-out = %d shards; the warm relay needs > 1", len(stats.Shards))
	}
	if !stats.TableWarmed {
		t.Fatalf("TableWarmed = false: %s", stats.TableWarmError)
	}
	if !stats.Verified {
		t.Error("warmed cluster sort not verified")
	}
}

func TestCoordinatorConfigAndJobValidation(t *testing.T) {
	nodes := startShards(t, 1)
	if _, err := cluster.New(cluster.Config{}); err == nil {
		t.Error("New with no nodes succeeded")
	}
	if _, err := cluster.New(cluster.Config{Nodes: nodes, MaxShards: -1}); err == nil {
		t.Error("New with negative MaxShards succeeded")
	}
	if _, err := cluster.NewRing([]string{"a", "a"}, 4); err == nil {
		t.Error("NewRing with duplicate nodes succeeded")
	}

	keys := encode(dataset.Uniform(1000, 3))
	badJobs := []cluster.JobParams{
		{Algorithm: "bogosort", Seed: 1},
		{Backend: "no-such-backend", Seed: 1},
		{Backend: "spintronic", T: 0.07, Seed: 1}, // t is MLC-only
	}
	for _, job := range badJobs {
		co, err := cluster.New(cluster.Config{Nodes: nodes, Job: job, TempDir: t.TempDir()})
		if err != nil {
			t.Fatalf("New(%+v): %v", job, err)
		}
		if _, err := co.Sort(context.Background(), bytes.NewReader(keys), io.Discard); err == nil {
			t.Errorf("Sort with job %+v succeeded", job)
		}
	}
}

// TestCoordinatorAlgorithmNames drives the pilot through each of the
// sortd API's algorithm names on a single-node fleet.
func TestCoordinatorAlgorithmNames(t *testing.T) {
	nodes := startShards(t, 1)
	keys := dataset.Uniform(3000, 7)
	for _, alg := range []string{"lsd", "quicksort", "mergesort"} {
		co, err := cluster.New(cluster.Config{
			Nodes:   nodes,
			Job:     cluster.JobParams{Algorithm: alg, Mode: "auto", T: 0.07, Seed: 5},
			TempDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		stats, err := co.Sort(context.Background(), bytes.NewReader(encode(keys)), &out)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if stats.Records != int64(len(keys)) {
			t.Errorf("%s: records = %d", alg, stats.Records)
		}
		got := decode(t, out.Bytes())
		if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) {
			t.Errorf("%s: output not sorted", alg)
		}
	}
}

func TestRingMembershipAndLookupN(t *testing.T) {
	ring, err := cluster.NewRing([]string{"c", "a", "b"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	nodes := ring.Nodes()
	if !sort.StringsAreSorted(nodes) || len(nodes) != 3 {
		t.Fatalf("Nodes() = %v, want 3 sorted entries", nodes)
	}
	nodes[0] = "mutated"
	if ring.Nodes()[0] == "mutated" {
		t.Error("Nodes() exposes internal state")
	}
	if got := ring.LookupN("key", 0); got != nil {
		t.Errorf("LookupN(0) = %v, want nil", got)
	}
	all := ring.LookupN("key", 99)
	if len(all) != 3 {
		t.Fatalf("LookupN over-asking returned %d nodes", len(all))
	}
	seen := map[string]bool{}
	for _, n := range all {
		if seen[n] {
			t.Fatalf("LookupN returned %q twice", n)
		}
		seen[n] = true
	}
	if ring.Lookup("key") != all[0] {
		t.Error("Lookup disagrees with LookupN's first choice")
	}
}

func TestClientSurfacesServerErrors(t *testing.T) {
	nodes := startShards(t, 1)
	c := &cluster.Client{Node: nodes[0]} // nil HTTP: default client path
	ctx := context.Background()

	_, err := c.Submit(ctx, cluster.JobParams{T: 99, Seed: 1}, func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(encode([]uint32{2, 1}))), nil
	})
	var se *cluster.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("Submit with absurd t: err = %v, want ShardError", err)
	}
	if se.Stage != "submit" || se.Node != nodes[0] {
		t.Errorf("ShardError = %+v", se)
	}
	if msg := se.Error(); !strings.Contains(msg, nodes[0]) || !strings.Contains(msg, "submit") {
		t.Errorf("Error() = %q missing node or stage", msg)
	}

	if _, err := c.Output(ctx, "job-99999999"); err == nil {
		t.Error("Output of unknown job succeeded")
	}
	if _, err := c.FetchTable(ctx, -5); err == nil {
		t.Error("FetchTable with invalid t succeeded")
	}
	if err := c.InstallTable(ctx, []byte(`{"params":{}}`)); err == nil {
		t.Error("InstallTable with invalid artifact succeeded")
	}
}

// TestShardsReceiveEveryJobParam sets every cluster.JobParams field to a
// non-default value under an explicit mode and checks each shard job's
// own record reflects it; the seed, which no record echoes, is checked
// on the shard's submission instead. Fields are enumerated by
// reflection, so a field added to JobParams without a path to the
// shards, or without a check here, fails the test.
func TestShardsReceiveEveryJobParam(t *testing.T) {
	type shardJob struct {
		rec   server.Job
		query url.Values
		index int
	}
	checks := map[string]func(p cluster.JobParams, sj shardJob) bool{
		"Algorithm": func(p cluster.JobParams, sj shardJob) bool { return sj.rec.Algorithm == p.Algorithm },
		"Bits": func(p cluster.JobParams, sj shardJob) bool {
			return sj.rec.Result.Algorithm == fmt.Sprintf("%d-bit LSD", p.Bits)
		},
		"Mode":    func(p cluster.JobParams, sj shardJob) bool { return sj.rec.Result.Mode == p.Mode },
		"Backend": func(p cluster.JobParams, sj shardJob) bool { return sj.rec.Backend == p.Backend },
		"Params": func(p cluster.JobParams, sj shardJob) bool {
			for k, v := range p.Params {
				if sj.rec.Result.Params[k] != v {
					return false
				}
			}
			return true
		},
		"T": func(p cluster.JobParams, sj shardJob) bool { return sj.rec.T == p.T },
		"Seed": func(p cluster.JobParams, sj shardJob) bool {
			return sj.query.Get("seed") == strconv.FormatUint(rng.Split(p.Seed, "cluster", "shard", sj.index), 10)
		},
		"RunSize":   func(p cluster.JobParams, sj shardJob) bool { return sj.rec.Result.Extsort.RunSize == p.RunSize },
		"FanIn":     func(p cluster.JobParams, sj shardJob) bool { return sj.rec.Result.Extsort.FanIn == p.FanIn },
		"Formation": func(p cluster.JobParams, sj shardJob) bool { return sj.rec.Result.Extsort.Formation == p.Formation },
		"RefineAtMerge": func(p cluster.JobParams, sj shardJob) bool {
			return sj.rec.Result.Extsort.RefineAtMerge == p.RefineAtMerge
		},
	}
	base := cluster.JobParams{
		Algorithm: "lsd", Bits: 7, Mode: "hybrid", Seed: 77,
		RunSize: 4000, FanIn: 3, Formation: "chunk", RefineAtMerge: true,
	}
	// t is pcm-mlc's only parameter, so T and Params cannot both be set
	// on one valid job: one job per backend covers both.
	mlcJob, spinJob := base, base
	mlcJob.Backend, mlcJob.T = "pcm-mlc", 0.07
	spinJob.Backend, spinJob.Params = "spintronic", map[string]float64{"saving": 0.5}
	jobs := []cluster.JobParams{mlcJob, spinJob}

	typ := reflect.TypeOf(cluster.JobParams{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if checks[name] == nil {
			t.Errorf("JobParams.%s has no shard-side check", name)
		}
		set := false
		for _, p := range jobs {
			set = set || !reflect.ValueOf(p).Field(i).IsZero()
		}
		if !set {
			t.Errorf("no test job sets JobParams.%s", name)
		}
	}

	// Two shard nodes that record each stream submission's query.
	var mu sync.Mutex
	queries := map[string]url.Values{}
	var nodes []string
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{Workers: 2, StreamDir: t.TempDir()})
		h := s.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sort/stream" {
				mu.Lock()
				queries["http://"+r.Host] = r.URL.Query()
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		t.Cleanup(func() { s.Shutdown(context.Background()) })
		nodes = append(nodes, ts.URL)
	}

	keys := encode(dataset.Uniform(60000, 17))
	for _, p := range jobs {
		co, err := cluster.New(cluster.Config{Nodes: nodes, Job: p, TempDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := co.Sort(context.Background(), bytes.NewReader(keys), io.Discard)
		if err != nil {
			t.Fatalf("%s job: %v", p.Backend, err)
		}
		if len(stats.Shards) != len(nodes) {
			t.Fatalf("%s job fanned out to %d shards, want %d", p.Backend, len(stats.Shards), len(nodes))
		}
		for i, sh := range stats.Shards {
			resp, err := http.Get(sh.Node + "/v1/jobs/" + sh.JobID)
			if err != nil {
				t.Fatal(err)
			}
			var rec server.Job
			err = json.NewDecoder(resp.Body).Decode(&rec)
			resp.Body.Close()
			if err != nil || rec.Result == nil || rec.Result.Extsort == nil {
				t.Fatalf("%s job, shard %d: record %+v (%v)", p.Backend, i, rec, err)
			}
			mu.Lock()
			sj := shardJob{rec: rec, query: queries[sh.Node], index: i}
			mu.Unlock()
			for name, ok := range checks {
				if field := reflect.ValueOf(p).FieldByName(name); !field.IsZero() && !ok(p, sj) {
					t.Errorf("%s job, shard %d: JobParams.%s = %v did not reach the shard (submitted %v)",
						p.Backend, i, name, field, sj.query)
				}
			}
		}
	}
}
