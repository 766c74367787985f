package approxsort_test

// Hot-path microbenchmarks behind BENCH_core.json (DESIGN.md §13). These
// measure the simulation core itself — the table sampler, the accounted
// Get/Set path, a full refine run, and one sortd job — at the sizes the
// roadmap tracks (n=20k backend-grid cell, n=100k sortd job). They use
// only public package APIs so the same file benchmarks any revision of
// the internals; scripts/profile.sh drives them under pprof.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/experiments"
	"approxsort/internal/hybrid"
	"approxsort/internal/mem"
	"approxsort/internal/memmodel"
	"approxsort/internal/mlc"
	"approxsort/internal/rng"
	"approxsort/internal/server"
	"approxsort/internal/sorts"
	"approxsort/internal/verify"
)

// BenchmarkCoreTableWriteWord is the table-write microbench: one accounted
// MLC word write per iteration, mixed values, single shared RNG stream.
func BenchmarkCoreTableWriteWord(b *testing.B) {
	tab := mlc.CachedTable(mlc.Approximate(0.055), 0, mlc.CalibrationSeed)
	r := rng.New(benchSeed)
	var sinkIters int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, iters := tab.WriteWord(r, uint32(i)*2654435761)
		sinkIters += iters
	}
	b.ReportMetric(float64(sinkIters)/float64(b.N), "iters/word")
}

// BenchmarkCoreApproxSet measures the fully accounted store path
// (model sampling + accounting) with no sink attached.
func BenchmarkCoreApproxSet(b *testing.B) {
	sp := mem.NewApproxSpaceAt(0.055, benchSeed)
	w := sp.Alloc(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Set(i&4095, uint32(i))
	}
	if sp.Stats().Writes != b.N {
		b.Fatal("write accounting drifted")
	}
}

// BenchmarkCoreApproxGet measures the accounted load path.
func BenchmarkCoreApproxGet(b *testing.B) {
	sp := mem.NewApproxSpaceAt(0.055, benchSeed)
	w := sp.Alloc(4096)
	for i := 0; i < 4096; i++ {
		w.Set(i, uint32(i))
	}
	b.ResetTimer()
	var acc uint32
	for i := 0; i < b.N; i++ {
		acc += w.Get(i & 4095)
	}
	_ = acc
}

func benchCoreRefine(b *testing.B, alg sorts.Algorithm, n int) {
	keys := dataset.Uniform(n, benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := experiments.Refine(alg, 0.055, keys, benchSeed+uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !row.Sorted {
			b.Fatal("unsorted output")
		}
	}
}

// BenchmarkCoreRefine20k is the BENCH_backend.json grid-cell size.
func BenchmarkCoreRefine20k(b *testing.B) { benchCoreRefine(b, sorts.Quicksort{}, 20000) }

// BenchmarkCoreRefineMSD20k is the same grid cell under 6-bit MSD radix —
// the algorithm whose queue-bucket passes the bulk access path rewrites.
func BenchmarkCoreRefineMSD20k(b *testing.B) { benchCoreRefine(b, sorts.MSD{Bits: 6}, 20000) }

// BenchmarkCoreRefine100k is the BENCH_sortd.json job size.
func BenchmarkCoreRefine100k(b *testing.B) { benchCoreRefine(b, sorts.Quicksort{}, 100000) }

// BenchmarkCoreSortdJob runs one hybrid n=100k sortd job end to end
// through the HTTP handler — the quantity BENCH_sortd.json reports as
// p50 job latency.
func BenchmarkCoreSortdJob(b *testing.B) {
	srv := server.New(server.Config{Workers: 1, MaxN: 100000})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	body := fmt.Sprintf(
		`{"dataset":{"kind":"uniform","n":100000,"seed":%d},"algorithm":"auto","mode":"hybrid","t":0.055,"seed":%d}`,
		benchSeed, benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/sort?wait=1", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("POST /v1/sort: HTTP %d", resp.StatusCode)
		}
		var job server.Job
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if job.Status != server.StatusDone {
			b.Fatalf("job status %q: %s", job.Status, job.Error)
		}
	}
}

// BenchmarkCoreMemsim is one sinked n=100k onesweep-lsd hybrid run — the
// Table 1 memory-system simulation sortd's hybrid executor attaches —
// with the simulation applied inline and overlapped through
// hybrid.System.Run. Compare the two at -cpu 1,2: the overlap pays off
// only with a second core. Both report the same pcm_ns/rec.
func BenchmarkCoreMemsim(b *testing.B) {
	const n = 100000
	keys := dataset.Uniform(n, benchSeed)
	alg, err := sorts.New("onesweep-lsd", 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"inline", "run"} {
		b.Run(mode, func(b *testing.B) {
			var clock float64
			for i := 0; i < b.N; i++ {
				sys := hybrid.New()
				cfg := core.Config{
					Algorithm:   alg,
					T:           0.055,
					Seed:        benchSeed,
					PreciseSink: sys.Region("precise", mlc.PreciseWriteNanos),
					ApproxSink:  sys.Region("approx", 0.67*mlc.PreciseWriteNanos),
				}
				run := func() {
					if _, err := core.Run(keys, cfg); err != nil {
						b.Fatal(err)
					}
				}
				if mode == "run" {
					sys.Run(run)
				} else {
					run()
				}
				if err := sys.Stats().Check(); err != nil {
					b.Fatal(err)
				}
				clock = sys.Clock()
			}
			b.ReportMetric(clock/n, "pcm_ns/rec")
		})
	}
}

// BenchmarkCoreVerifyRefineRun is the verify audit sortd runs on every
// finished hybrid job: verify.CheckRefineRun alone over an n=1M
// onesweep-lsd result at T=0.055 (the inmem-hybrid-1m job), with the
// PCM-MLC identity set. The sort runs once, outside the timer.
func BenchmarkCoreVerifyRefineRun(b *testing.B) {
	keys := dataset.Uniform(1000000, benchSeed)
	alg, err := sorts.New("onesweep-lsd", 0)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Run(keys, core.Config{Algorithm: alg, T: 0.055, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	id := memmodel.MustGet(memmodel.PCMMLC).Identities(memmodel.Point{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verify.CheckRefineRun(keys, res, id).Err(); err != nil {
			b.Fatal(err)
		}
	}
}
