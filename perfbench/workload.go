package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"approxsort/internal/dataset"
	"approxsort/internal/rng"
	"approxsort/internal/server"
)

// Job classes: the three sortd endpoints.
const (
	classSort    = "sort"
	classStream  = "stream"
	classSharded = "sharded"
)

// jobSpec is one job of a workload's list: the request the client sends,
// in the explicit form of the public API (every field the server would
// default is spelled out, so the traced replay can rebuild the job's
// configuration without guessing defaults).
type jobSpec struct {
	Class      string
	Dataset    server.DatasetSpec
	Algorithm  string
	Mode       string
	Backend    string
	T          float64
	Seed       uint64
	ReturnKeys bool
	RunSize    int
	FanIn      int
	WarmTables bool
}

// path is the endpoint the job is posted to.
func (j jobSpec) path() string {
	switch j.Class {
	case classStream:
		return "/v1/sort/stream?wait=1"
	case classSharded:
		return "/v1/sort/sharded?wait=1"
	}
	return "/v1/sort?wait=1"
}

// body encodes the request through the server's own request types.
func (j jobSpec) body() ([]byte, error) {
	ds := j.Dataset
	switch j.Class {
	case classSort:
		return json.Marshal(server.SortRequest{
			Dataset: &ds, Algorithm: j.Algorithm, Mode: j.Mode, Backend: j.Backend,
			T: j.T, Seed: j.Seed, ReturnKeys: j.ReturnKeys,
		})
	case classStream:
		return json.Marshal(j.streamRequest())
	case classSharded:
		return json.Marshal(server.ShardedRequest{StreamRequest: j.streamRequest(), WarmTables: j.WarmTables})
	}
	return nil, fmt.Errorf("unknown job class %q", j.Class)
}

func (j jobSpec) streamRequest() server.StreamRequest {
	ds := j.Dataset
	return server.StreamRequest{
		Dataset: &ds, Algorithm: j.Algorithm, Mode: j.Mode, Backend: j.Backend,
		T: j.T, Seed: j.Seed, RunSize: j.RunSize, FanIn: j.FanIn,
	}
}

// keys generates the job's input exactly as the server's dataset specs
// define it — the client-side reference every output is checked against.
func (j jobSpec) keys() ([]uint32, error) {
	d := j.Dataset
	switch d.Kind {
	case "uniform":
		return dataset.Uniform(d.N, d.Seed), nil
	case "nearlysorted":
		return dataset.NearlySorted(d.N, d.Swaps, d.Seed), nil
	case "fewdistinct":
		return dataset.FewDistinct(d.N, d.K, d.Seed), nil
	case "zipf":
		return dataset.Zipf(d.N, d.K, d.S, d.Seed), nil
	}
	return nil, fmt.Errorf("perfbench: no reference generator for dataset kind %q", d.Kind)
}

// workload is one traffic mix: a closed loop of clients over a job list
// generated from the seed, against one sortd or a coordinator + shards.
type workload struct {
	name string
	// clients is the closed-loop client count.
	clients int
	// shards is the shard fleet size behind a coordinator (0: one sortd).
	shards int
	// cycle is the job-list period; a run stops on a cycle boundary so
	// every run sends whole cycles of the mix.
	cycle int
	// job returns the i-th job of the list for a seed.
	job func(seed uint64, i int) jobSpec
	// warmups are the set-up jobs, one per distinct backend point.
	warmups []jobSpec
	// replay is how many leading jobs the traced run replays layer by
	// layer.
	replay int
}

const warmN = 16384

// pcmT is the paper's pcm-mlc sweet spot (Figure 9).
const pcmT = 0.055

func jobSeed(seed uint64, wl, what string, i int) uint64 {
	return rng.Split(seed, "perfbench", wl, what, i)
}

var workloads = map[string]workload{
	"inmem-hybrid-1m": {
		name: "inmem-hybrid-1m", clients: 1, cycle: 1, replay: 1,
		job: func(seed uint64, i int) jobSpec {
			return jobSpec{
				Class:     classSort,
				Dataset:   server.DatasetSpec{Kind: "uniform", N: 1000000, Seed: jobSeed(seed, "inmem-hybrid-1m", "dataset", i)},
				Algorithm: "auto", Mode: "hybrid", Backend: "pcm-mlc", T: pcmT,
				Seed: jobSeed(seed, "inmem-hybrid-1m", "request", i), ReturnKeys: true,
			}
		},
		warmups: []jobSpec{{
			Class: classSort, Dataset: server.DatasetSpec{Kind: "uniform", N: warmN, Seed: 1},
			Algorithm: "auto", Mode: "hybrid", Backend: "pcm-mlc", T: pcmT, Seed: 1, ReturnKeys: true,
		}},
	},
	"inmem-auto-mix": {
		name: "inmem-auto-mix", clients: 2, cycle: len(mixCombos), replay: len(mixCombos),
		job: mixJob,
		warmups: []jobSpec{
			mixWarmup("pcm-mlc", pcmT), mixWarmup("memristive", 0), mixWarmup("spintronic", 0),
		},
	},
	"stream-2m": {
		name: "stream-2m", clients: 1, cycle: 1, replay: 1,
		job: func(seed uint64, i int) jobSpec {
			return jobSpec{
				Class:     classStream,
				Dataset:   server.DatasetSpec{Kind: "uniform", N: 2000000, Seed: jobSeed(seed, "stream-2m", "dataset", i)},
				Algorithm: "msd", Mode: "hybrid", Backend: "pcm-mlc", T: pcmT,
				Seed: jobSeed(seed, "stream-2m", "request", i), RunSize: 131072, FanIn: 4,
			}
		},
		warmups: []jobSpec{{
			Class: classStream, Dataset: server.DatasetSpec{Kind: "uniform", N: warmN, Seed: 1},
			Algorithm: "msd", Mode: "hybrid", Backend: "pcm-mlc", T: pcmT, Seed: 1, RunSize: warmN / 8, FanIn: 4,
		}},
	},
	"sharded-2x1m": {
		name: "sharded-2x1m", clients: 1, shards: 2, cycle: 1, replay: 1,
		job: func(seed uint64, i int) jobSpec {
			return jobSpec{
				Class:     classSharded,
				Dataset:   server.DatasetSpec{Kind: "uniform", N: 1000000, Seed: jobSeed(seed, "sharded-2x1m", "dataset", i)},
				Algorithm: "auto", Mode: "auto", Backend: "pcm-mlc", T: pcmT,
				Seed: jobSeed(seed, "sharded-2x1m", "request", i), RunSize: 131072, WarmTables: true,
			}
		},
		warmups: []jobSpec{{
			Class: classSharded, Dataset: server.DatasetSpec{Kind: "uniform", N: 4 * warmN, Seed: 1},
			Algorithm: "auto", Mode: "auto", Backend: "pcm-mlc", T: pcmT, Seed: 1, RunSize: 131072, WarmTables: true,
		}},
	},
}

// mixCombo is one cell of the inmem-auto-mix cross product.
type mixCombo struct {
	n       int
	kind    string
	backend string
	t       float64
}

// mixCombos crosses n ∈ {16384, 65536} with four input kinds and three
// backends: one cycle of the inmem-auto-mix list.
var mixCombos = func() []mixCombo {
	var out []mixCombo
	for _, n := range []int{16384, 65536} {
		for _, kind := range []string{"uniform", "fewdistinct", "nearlysorted", "zipf"} {
			out = append(out,
				mixCombo{n, kind, "pcm-mlc", pcmT},
				mixCombo{n, kind, "memristive", 0},
				mixCombo{n, kind, "spintronic", 0})
		}
	}
	return out
}()

// mixJob returns job i of the inmem-auto-mix list: cycle i/len(mixCombos)
// visits every combo once, in an order shuffled by the seed, each with
// its own dataset and request seeds.
func mixJob(seed uint64, i int) jobSpec {
	cycle, slot := i/len(mixCombos), i%len(mixCombos)
	perm := make([]int, len(mixCombos))
	rng.New(jobSeed(seed, "inmem-auto-mix", "cycle", cycle)).Perm(perm)
	c := mixCombos[perm[slot]]
	ds := server.DatasetSpec{Kind: c.kind, N: c.n, Seed: jobSeed(seed, "inmem-auto-mix", "dataset", i)}
	switch c.kind {
	case "fewdistinct":
		ds.K = 16
	case "nearlysorted":
		ds.Swaps = c.n / 100
	case "zipf":
		ds.K, ds.S = 1024, 1.2
	}
	return jobSpec{
		Class: classSort, Dataset: ds, Algorithm: "auto", Mode: "auto",
		Backend: c.backend, T: c.t, Seed: jobSeed(seed, "inmem-auto-mix", "request", i), ReturnKeys: true,
	}
}

func mixWarmup(backend string, t float64) jobSpec {
	return jobSpec{
		Class: classSort, Dataset: server.DatasetSpec{Kind: "uniform", N: warmN, Seed: 1},
		Algorithm: "auto", Mode: "auto", Backend: backend, T: t, Seed: 1, ReturnKeys: true,
	}
}

// listDigest hashes the request bodies of jobs [0, n) — two runs that
// print the same digest over the same count sent identical traffic.
func listDigest(w workload, seed uint64, n int) (string, error) {
	h := sha256.New()
	for i := 0; i < n; i++ {
		b, err := w.job(seed, i).body()
		if err != nil {
			return "", err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
