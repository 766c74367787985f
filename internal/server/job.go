package server

import (
	"fmt"
	"math"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"time"

	"approxsort/internal/cluster"
	"approxsort/internal/dataset"
	"approxsort/internal/extsort"
	"approxsort/internal/memmodel"
	"approxsort/internal/sorts"
)

// SortRequest is the body of POST /v1/sort. Exactly one of Keys or Dataset
// supplies the input.
type SortRequest struct {
	// Keys is the inline input array.
	Keys []uint32 `json:"keys,omitempty"`
	// Dataset generates the input server-side from a spec, so load tests
	// don't pay to ship megabytes of keys over the wire.
	Dataset *DatasetSpec `json:"dataset,omitempty"`

	// Algorithm selects the sort by its registry name (GET /v1/algorithms
	// lists them: quicksort, mergesort, lsd, msd, onesweep-lsd, …).
	// "auto" (the default) lets the planner pick per backend and input:
	// in-memory jobs run one Equation 4 pilot per registered candidate and
	// keep the cheapest; streaming and sharded jobs resolve it to the
	// paper's default (6-bit MSD, the Figure 9 winner). Bits sets the
	// radix digit width; 0 takes the algorithm's registry default (6 for
	// lsd/msd, 8 for onesweep-lsd).
	Algorithm string `json:"algorithm,omitempty"`
	Bits      int    `json:"bits,omitempty"`

	// Mode picks the execution path: "hybrid" forces approx-refine,
	// "precise" forces the traditional sort, and "auto" (default) runs
	// core.Planner's pilot and routes per Equation 4. Note the planner
	// routes on write latency; backends that save energy at full latency
	// (spintronic) always route precise under auto, so energy-motivated
	// jobs on such backends should force "hybrid".
	Mode string `json:"mode,omitempty"`

	// Backend names the approximate-memory device model from the
	// memmodel registry (GET /v1/backends lists them). Empty selects
	// "pcm-mlc", the paper's main-body model.
	Backend string `json:"backend,omitempty"`
	// Params sets the backend's operating point (e.g. {"saving": 0.33,
	// "bit_error_prob": 1e-5} for spintronic). Absent parameters take
	// the backend's documented defaults.
	Params map[string]float64 `json:"params,omitempty"`

	// T is the pcm-mlc target half-width — legacy shorthand for
	// params.t. 0 defaults to 0.055, the paper's sweet spot (Figure 9).
	// Rejected for other backends.
	T float64 `json:"t,omitempty"`

	// Seed drives the run's noise and pivot streams. The planner pilot
	// and execution derive sub-streams from it via rng.Split.
	Seed uint64 `json:"seed,omitempty"`

	// ReturnKeys asks for the sorted key array in the response. Refused
	// above maxReturnKeys to keep job records small.
	ReturnKeys bool `json:"return_keys,omitempty"`
}

// maxReturnKeys bounds the sorted payload a job is willing to echo back.
const maxReturnKeys = 1 << 20

// DatasetSpec names a generated workload from internal/dataset.
type DatasetSpec struct {
	// Kind: uniform|sorted|reverse|nearlysorted|fewdistinct|zipf.
	Kind string `json:"kind"`
	N    int    `json:"n"`
	// Seed for the generator; 0 is a valid seed.
	Seed uint64 `json:"seed,omitempty"`
	// K is the distinct-value count for fewdistinct/zipf.
	K int `json:"k,omitempty"`
	// S is the Zipf exponent.
	S float64 `json:"s,omitempty"`
	// Swaps is the transposition count for nearlysorted.
	Swaps int `json:"swaps,omitempty"`
}

// validKinds names every dataset generator the API accepts.
var validKinds = map[string]bool{
	"": true, "uniform": true, "sorted": true, "reverse": true,
	"nearlysorted": true, "fewdistinct": true, "zipf": true,
}

// validate rejects malformed specs at admission time, so a bad request
// fails with 400 instead of a failed job.
func (d *DatasetSpec) validate() error {
	if !validKinds[d.Kind] {
		return fmt.Errorf("unknown dataset kind %q", d.Kind)
	}
	if d.K < 0 || d.Swaps < 0 || d.S < 0 {
		return fmt.Errorf("dataset parameters must be non-negative")
	}
	return nil
}

// materialize generates the spec'd keys.
func (d *DatasetSpec) materialize() ([]uint32, error) {
	if d.N < 0 {
		return nil, fmt.Errorf("dataset n = %d is negative", d.N)
	}
	switch d.Kind {
	case "uniform", "":
		return dataset.Uniform(d.N, d.Seed), nil
	case "sorted":
		return dataset.Sorted(d.N), nil
	case "reverse":
		return dataset.Reverse(d.N), nil
	case "nearlysorted":
		return dataset.NearlySorted(d.N, d.Swaps, d.Seed), nil
	case "fewdistinct":
		k := d.K
		if k <= 0 {
			k = 16
		}
		return dataset.FewDistinct(d.N, k, d.Seed), nil
	case "zipf":
		k, s := d.K, d.S
		if k <= 0 {
			k = 1024
		}
		if s <= 0 {
			s = 1.2
		}
		return dataset.Zipf(d.N, k, s, d.Seed), nil
	default:
		return nil, fmt.Errorf("unknown dataset kind %q", d.Kind)
	}
}

// jobSpec is the one job description every route's request becomes after
// decode: the union of the three wire types' fields, the route's class,
// and — once normalize has run — the resolved algorithm and backend
// point. Admission and the executors work on nothing else.
type jobSpec struct {
	// ShardedRequest carries the shared sort parameters, the streaming
	// geometry and the sharded placement; Keys and ReturnKeys are
	// SortRequest's inline input and echo flag.
	ShardedRequest
	Keys       []uint32
	ReturnKeys bool

	class *jobClass
	// upload marks the octet-stream form: the keys are the request body.
	upload bool

	alg     sorts.Algorithm // "auto" resolved to the paper's default
	backend memmodel.Backend
	point   memmodel.Point
}

// wireRequest is a route's JSON request type.
type wireRequest interface{ spec() *jobSpec }

func (r *SortRequest) spec() *jobSpec {
	return &jobSpec{
		ShardedRequest: ShardedRequest{StreamRequest: StreamRequest{
			Dataset: r.Dataset, Algorithm: r.Algorithm, Bits: r.Bits, Mode: r.Mode,
			Backend: r.Backend, Params: r.Params, T: r.T, Seed: r.Seed,
		}},
		Keys:       r.Keys,
		ReturnKeys: r.ReturnKeys,
	}
}

func (r *StreamRequest) spec() *jobSpec {
	return &jobSpec{ShardedRequest: ShardedRequest{StreamRequest: *r}}
}

func (r *ShardedRequest) spec() *jobSpec { return &jobSpec{ShardedRequest: *r} }

// jobClass is what admission and execution know about a route.
type jobClass struct {
	kind, route string
	// disk classes keep a job directory (spooled upload, spill,
	// downloadable output) and accept an octet-stream body.
	disk bool
	// tenant classes hold a per-tenant inflight slot while queued or
	// running.
	tenant bool
	wire   func() wireRequest
	exec   func(*Server, *Job) (*JobResult, error)
}

var (
	sortClass = &jobClass{kind: KindSort, route: "/v1/sort",
		wire: func() wireRequest { return new(SortRequest) }, exec: (*Server).executeSort}
	streamClass = &jobClass{kind: KindStream, route: "/v1/sort/stream", disk: true,
		wire: func() wireRequest { return new(StreamRequest) }, exec: (*Server).executeStream}
	shardedClass = &jobClass{kind: KindSharded, route: "/v1/sort/sharded", disk: true, tenant: true,
		wire: func() wireRequest { return new(ShardedRequest) }, exec: (*Server).executeSharded}
)

// parseQuery reads a disk class's octet-stream form: every JSON field of
// the class's wire type under its JSON name, parsed by its Go type, and
// the backend parameters as params.<name> (the form cluster.JobParams
// submits shard jobs in). Empty values and parameters naming no field
// (wait, for one) are ignored; the dataset spec has no query form.
func parseQuery(c *jobClass, q url.Values) (*jobSpec, error) {
	w := c.wire()
	if err := setQueryFields(reflect.ValueOf(w).Elem(), q); err != nil {
		return nil, err
	}
	spec := w.spec()
	spec.class, spec.upload = c, true
	return spec, nil
}

func setQueryFields(v reflect.Value, q url.Values) error {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		if f.Anonymous {
			if err := setQueryFields(fv, q); err != nil {
				return err
			}
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if fv.Kind() == reflect.Map {
			for key := range q {
				param, ok := strings.CutPrefix(key, name+".")
				if !ok {
					continue
				}
				x, err := strconv.ParseFloat(q.Get(key), 64)
				if err != nil {
					return fmt.Errorf("bad %s: %v", key, err)
				}
				if fv.IsNil() {
					fv.Set(reflect.MakeMap(fv.Type()))
				}
				fv.SetMapIndex(reflect.ValueOf(param), reflect.ValueOf(x))
			}
			continue
		}
		str := q.Get(name)
		if str == "" {
			continue
		}
		var err error
		switch fv.Kind() {
		case reflect.String:
			fv.SetString(str)
		case reflect.Int, reflect.Int64:
			var x int64
			x, err = strconv.ParseInt(str, 10, fv.Type().Bits())
			fv.SetInt(x)
		case reflect.Uint64:
			var x uint64
			x, err = strconv.ParseUint(str, 10, 64)
			fv.SetUint(x)
		case reflect.Float64:
			var x float64
			x, err = strconv.ParseFloat(str, 64)
			fv.SetFloat(x)
		case reflect.Bool:
			var x bool
			x, err = strconv.ParseBool(str)
			fv.SetBool(x)
		}
		if err != nil {
			return fmt.Errorf("bad %s: %v", name, err)
		}
	}
	return nil
}

// normalize validates the description and applies defaults in place;
// every error is a 400. The input rules are the class's own; mode,
// algorithm, bits and the backend point are shared. A normalized spec
// normalizes to itself.
func (s *jobSpec) normalize(cfg Config) error {
	if err := s.normalizeInput(cfg); err != nil {
		return err
	}
	switch s.Mode {
	case "":
		s.Mode = ModeAuto
	case ModeAuto, ModeHybrid, ModePrecise:
	default:
		return fmt.Errorf("unknown mode %q (want auto, hybrid or precise)", s.Mode)
	}
	if s.Algorithm == "" {
		s.Algorithm = "auto"
	}
	if s.Bits != 0 && (s.Bits < 1 || s.Bits > 16) {
		return fmt.Errorf("bits = %d out of range [1, 16]", s.Bits)
	}
	alg, err := sorts.Resolve(s.Algorithm, s.Bits)
	if err != nil {
		return err // *sorts.UnknownAlgorithmError → 400 with the roster
	}
	b, pt, err := memmodel.Resolve(s.Backend, s.Params, s.T)
	if err != nil {
		return err // *memmodel.UnknownBackendError → 400
	}
	// The resolved point's parameters replace the t shorthand, so a
	// second normalize resolves the same point.
	s.alg, s.backend, s.point = alg, b, pt
	s.Backend, s.Params, s.T = b.Name(), pt.Params, 0
	return nil
}

// normalizeInput applies the class's input rules.
func (s *jobSpec) normalizeInput(cfg Config) error {
	if !s.class.disk {
		if (len(s.Keys) > 0) == (s.Dataset != nil) {
			return fmt.Errorf("provide exactly one of keys or dataset")
		}
		if s.Dataset != nil {
			if err := s.Dataset.validate(); err != nil {
				return err
			}
		}
		n := s.inlineSize()
		if n <= 0 {
			return fmt.Errorf("input must have at least one key")
		}
		if n > cfg.MaxN {
			return fmt.Errorf("input size %d exceeds the server limit %d", n, cfg.MaxN)
		}
		if s.ReturnKeys && n > maxReturnKeys {
			return fmt.Errorf("return_keys allowed only up to %d keys, got %d", maxReturnKeys, n)
		}
		return nil
	}
	if s.upload == (s.Dataset != nil) {
		return fmt.Errorf("provide the key stream as the request body or a dataset spec, not both")
	}
	if d := s.Dataset; d != nil {
		if err := d.validate(); err != nil {
			return err
		}
		if d.Kind == "nearlysorted" {
			return fmt.Errorf("dataset kind nearlysorted is not streamable")
		}
		if d.N <= 0 {
			return fmt.Errorf("dataset must have at least one key")
		}
		if b := 4 * int64(d.N); b > cfg.MaxStreamBytes {
			return fmt.Errorf("dataset stream of %d bytes exceeds the server quota %d", b, cfg.MaxStreamBytes)
		}
	}
	switch s.Formation {
	case "":
		s.Formation = extsort.FormationReplacement
	case extsort.FormationReplacement, extsort.FormationChunk:
	default:
		return fmt.Errorf("unknown formation %q (want replacement or chunk)", s.Formation)
	}
	if s.RunSize < 0 || s.FanIn < 0 || s.MaxDiskBytes < 0 {
		return fmt.Errorf("run_size, fan_in and max_disk_bytes must be non-negative")
	}
	if s.FanIn == 1 {
		return fmt.Errorf("fan_in = 1 cannot merge")
	}
	if s.MaxDiskBytes == 0 || s.MaxDiskBytes > cfg.MaxStreamBytes {
		s.MaxDiskBytes = cfg.MaxStreamBytes
	}
	if s.class.tenant {
		if s.MaxShards < 0 {
			return fmt.Errorf("max_shards must be non-negative")
		}
		if s.Tenant == "" {
			s.Tenant = "default"
		}
	}
	return nil
}

// inlineSize returns an in-memory job's n.
func (s *jobSpec) inlineSize() int {
	if s.Dataset != nil {
		return s.Dataset.N
	}
	return len(s.Keys)
}

// halfWidth is the legacy t column of job records: the resolved pcm-mlc
// half-width, 0 for other backends.
func (s *jobSpec) halfWidth() float64 {
	if s.backend.Name() != memmodel.PCMMLC {
		return 0
	}
	t, _ := s.point.Param("t")
	return t
}

// Job states.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Job kinds.
const (
	// KindSort is an in-memory POST /v1/sort job (the zero value, omitted
	// from JSON for compatibility).
	KindSort = ""
	// KindStream is an out-of-core POST /v1/sort/stream job.
	KindStream = "stream"
	// KindSharded is a multi-node POST /v1/sort/sharded job, fanned
	// across the configured shard fleet by the cluster coordinator.
	KindSharded = "sharded"
)

// Execution modes.
const (
	ModeAuto    = "auto"
	ModeHybrid  = "hybrid"
	ModePrecise = "precise"
)

// PlanView is the planner verdict echoed in a job result.
type PlanView struct {
	// Algorithm is the registry name the auto planner chose; empty when
	// the request fixed the algorithm and the planner only routed the mode.
	Algorithm     string  `json:"algorithm,omitempty"`
	UseHybrid     bool    `json:"use_hybrid"`
	PredictedWR   float64 `json:"predicted_wr"`
	P             float64 `json:"p"`
	PilotRemRatio float64 `json:"pilot_rem_ratio"`
	PredictedRem  int     `json:"predicted_rem"`
	PilotSize     int     `json:"pilot_size"`
}

// WriteCounts breaks a run's word writes down by memory kind.
type WriteCounts struct {
	Approx   int `json:"approx"`
	Precise  int `json:"precise"`
	Baseline int `json:"baseline,omitempty"`
}

// JobResult is the completed job's payload.
type JobResult struct {
	Algorithm string `json:"algorithm"`
	Mode      string `json:"mode"` // hybrid or precise (auto resolved)
	N         int    `json:"n"`
	// Backend and Params echo the resolved memory model and its
	// normalized operating point; T is the legacy pcm-mlc half-width
	// column (0 for other backends).
	Backend string             `json:"backend"`
	Params  map[string]float64 `json:"params,omitempty"`
	T       float64            `json:"t"`

	// Plan is present when the job consulted the planner (mode auto).
	Plan *PlanView `json:"plan,omitempty"`

	// Extsort is the external-sort section of a streaming job's result:
	// run formation, merge structure, disk ledger, and the (M, B, ω)
	// planner verdict.
	Extsort *ExtsortView `json:"extsort,omitempty"`

	// Cluster is the multi-node section of a sharded job's result: the
	// per-shard ledger, splitters, the (M, B, ω, S) plan, and the
	// cross-shard merge accounting.
	Cluster *cluster.Stats `json:"cluster,omitempty"`

	// Rem is the refine stage's heuristic remainder Rem~ (hybrid only).
	Rem int `json:"rem"`
	// Writes counts word writes by memory kind; Baseline is the
	// precise-only reference when one was run.
	Writes WriteCounts `json:"writes"`
	// PredictedWR is Equation 4's verdict (mode auto only; otherwise 0),
	// ActualWR the measured Equation 2 reduction versus the baseline.
	PredictedWR float64 `json:"predicted_wr"`
	ActualWR    float64 `json:"actual_wr"`
	// WriteNanos is the modelled total memory write latency (TMWL).
	WriteNanos float64 `json:"write_nanos"`
	// PCMNanos is the CPU-visible clock of the run's access stream
	// driven through the Table 1 cache hierarchy + banked PCM device.
	PCMNanos float64 `json:"pcm_nanos"`
	// Sorted confirms the output passed the precision check.
	Sorted bool `json:"sorted"`
	// Verified confirms the run passed the full internal/verify audit:
	// differential oracle, permutation and record-identity checks, and
	// (hybrid mode) the refine write-budget and stage-accounting
	// identities. A job that fails verification fails outright, so a
	// done job always reports true; the field makes the contract
	// visible in the API.
	Verified bool `json:"verified"`
	// Keys is the sorted output, when return_keys was set.
	Keys []uint32 `json:"keys,omitempty"`
}

// sanitize clamps non-finite floats so the result is always JSON-encodable
// (encoding/json rejects NaN and ±Inf).
func (r *JobResult) sanitize() {
	fs := []*float64{&r.PredictedWR, &r.ActualWR, &r.WriteNanos, &r.PCMNanos}
	if r.Plan != nil {
		fs = append(fs, &r.Plan.PredictedWR, &r.Plan.P, &r.Plan.PilotRemRatio)
	}
	for _, f := range fs {
		if math.IsNaN(*f) {
			*f = 0
		} else if math.IsInf(*f, 1) {
			*f = math.MaxFloat64
		} else if math.IsInf(*f, -1) {
			*f = -math.MaxFloat64
		}
	}
}

// Job is one unit of work flowing queue → worker → store.
type Job struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Kind distinguishes in-memory sorts from streaming jobs.
	Kind string `json:"kind,omitempty"`

	// Echoed request coordinates, for list/debug views.
	Algorithm string  `json:"algorithm"`
	Mode      string  `json:"mode"`
	Backend   string  `json:"backend"`
	N         int     `json:"n"`
	T         float64 `json:"t"`

	// Progress is a streaming job's live progress (nil otherwise),
	// refreshed by the worker mid-run.
	Progress *JobProgress `json:"progress,omitempty"`
	// OutputBytes is a finished streaming job's downloadable output size.
	OutputBytes int64 `json:"output_bytes,omitempty"`

	Result *JobResult `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`

	EnqueuedAt time.Time `json:"enqueued_at"`
	StartedAt  time.Time `json:"started_at,omitempty"`
	FinishedAt time.Time `json:"finished_at,omitempty"`

	// done closes when the job reaches a terminal state; spec carries the
	// work; dir is a disk class's on-disk state, records its input count,
	// tenant the held inflight slot. Unexported: none serialize.
	done    chan struct{}
	spec    *jobSpec
	tenant  string
	dir     string
	records int64
}
