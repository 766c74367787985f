// Command perfbench is approxsort's end-to-end benchmark: it hosts sortd
// in-process (server.New behind httptest), drives one workload's closed
// loop through the public HTTP API for a fixed time, checks every
// job's output, and prints every metric by name with its unit. The last
// line of standard output is the result as one JSON object.
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs the same loop, then replays the workload's first jobs layer by
// layer (spans in memory, written to --out at the end) and reports the
// per-layer metrics; a replay that does not reproduce its served job's
// accounting bit for bit fails the run.
//
// See README.md in this directory for the workloads, the metrics and
// the layer → end-to-end mapping.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run builds its deployment from cold;
// setup_s is the median.
const setupReps = 5

// digestJobs is the job-list prefix whose digest every run prints.
const digestJobs = 48

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// perLayer names every traced-run metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"server.queue_wait_s", "s"}, {"server.exec_s", "s"}, {"server.http_s", "s"}, {"server.rejected_429", "count"},
	{"dataset.s", "s"},
	{"plan.s", "s"}, {"plan.candidates", "count"},
	{"core.s", "s"}, {"core.baseline_s", "s"}, {"core.approx_writes", "count"}, {"core.precise_writes", "count"},
	{"core.baseline_writes", "count"}, {"core.rem_tilde", "count"}, {"core.ns_per_approx_write", "ns"},
	{"memsim.s", "s"}, {"memsim.accesses", "count"}, {"memsim.l1_hit_ratio", "ratio"}, {"memsim.mem_reads", "count"},
	{"memsim.write_stall_ns", "ns"}, {"modeled_pcm_ns_per_rec", "ns/rec"},
	{"verify.s", "s"}, {"encode.s", "s"},
	{"extsort.form_s", "s"}, {"extsort.merge_s", "s"}, {"extsort.runs", "count"}, {"extsort.merge_passes", "count"},
	{"extsort.disk_bytes", "bytes"}, {"extsort.run_len_over_m", "ratio"},
	{"cluster.s", "s"}, {"cluster.shard_exec_s", "s"}, {"cluster.merge_s", "s"}, {"cluster.shard_skew", "ratio"},
	{"cluster.merge_writes", "count"},
	{"trace.job_p50_s", "s"}, {"trace.replayed_jobs", "count"},
}

// ratioLayers average over the replayed jobs that report them; every
// other per-layer value averages over all replayed jobs.
var ratioLayers = map[string]bool{
	"core.ns_per_approx_write": true, "memsim.l1_hit_ratio": true,
	"extsort.run_len_over_m": true, "cluster.shard_skew": true,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "workload seed: every job of the list derives from it")
		seconds = flag.Int("seconds", 20, "measured closed-loop duration")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced replay")
		out     = flag.String("out", ".bench_build/out", "directory for spans and job scratch space")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	scratch := filepath.Join(*out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	digest, err := listDigest(w, *seed, digestJobs)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d clients %d shards %d trace %d\n", w.name, *seed, w.clients, w.shards, *trace)
	fmt.Printf("job_list_digest %s (first %d jobs)\n", digest, digestJobs)

	f, setupTimes, err := setup(w, filepath.Join(scratch, "fleet"), setupReps)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer f.close()
	lr := runLoop(f, w, *seed, time.Duration(*seconds)*time.Second)

	res := result{Attempted: len(lr.outcomes), Metrics: map[string]metric{}}
	var lat []float64
	var records, writeNanos, pcmNanos float64
	for _, o := range lr.outcomes {
		if o.err != nil {
			res.Failed++
			fmt.Printf("job %d failed: %v\n", o.index, o.err)
			continue
		}
		lat = append(lat, o.latency)
		records += float64(o.spec.Dataset.N)
		writeNanos += o.job.Result.WriteNanos
		pcmNanos += o.job.Result.PCMNanos
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	sent, err := listDigest(w, *seed, len(lr.outcomes))
	if err != nil {
		return err
	}
	fmt.Printf("sent_digest %s (%d jobs)\n", sent, len(lr.outcomes))
	fmt.Printf("error_rate %.6f (%d of %d jobs failed)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	fmt.Printf("setup_runs_s %s\n", formatList(setupTimes))
	if p, v, ok := tail(lat); ok {
		fmt.Printf("job_tail_s %.6f s (p%g of %d jobs)\n", v, p, len(lat))
	} else {
		fmt.Printf("job_tail_s omitted: %d jobs, fewer than the 11 a tail percentile needs\n", len(lat))
	}
	if records > 0 && pcmNanos > 0 {
		fmt.Printf("modeled_pcm_ns_per_rec %.6f ns/rec\n", pcmNanos/records)
	}

	fmt.Printf("job_latencies_s %s\n", formatList(lat))
	fmt.Printf("window_records_per_s %s\n", formatList(lr.rates))
	fmt.Printf("window_peak_rss_mb %s\n", formatList(lr.peaksMB))
	if *trace == 0 {
		res.Metrics["records_per_s"] = metric{median(lr.rates), "1/s"}
		res.Metrics["job_p50_s"] = metric{median(lat), "s"}
		res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
		res.Metrics["peak_rss_mb"] = metric{median(lr.peaksMB), "MB"}
		res.Metrics["modeled_write_ns_per_rec"] = metric{writeNanos / math.Max(records, 1), "ns/rec"}
	} else {
		tr := newTracer()
		vals, err := tracedRun(tr, f, w, lr, scratch)
		spanPath := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		if werr := tr.write(spanPath); werr != nil && err == nil {
			err = werr
		}
		if err != nil {
			res.Correct = false
			fmt.Printf("traced run failed: %v\n", err)
		} else {
			fmt.Printf("spans %s (%d spans)\n", spanPath, len(tr.spans))
		}
		vals["trace.job_p50_s"] = median(lat)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	}

	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %s %.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return errors.New("outputs failed their checks")
	}
	return nil
}

// tracedRun derives the server-layer metrics from the loop's job records
// and replays the first successful jobs layer by layer.
func tracedRun(tr *tracer, f *fleet, w workload, lr loopResult, dir string) (map[string]float64, error) {
	vals := map[string]float64{}
	var queue, exec, httpS []float64
	for _, o := range lr.outcomes {
		if o.rejected {
			vals["server.rejected_429"]++
		}
		if o.err != nil {
			continue
		}
		j := o.job
		queue = append(queue, j.StartedAt.Sub(j.EnqueuedAt).Seconds())
		exec = append(exec, j.FinishedAt.Sub(j.StartedAt).Seconds())
		httpS = append(httpS, o.respAt.Sub(o.sentAt).Seconds()-j.FinishedAt.Sub(j.EnqueuedAt).Seconds())
	}
	vals["server.queue_wait_s"] = median(queue)
	vals["server.exec_s"] = median(exec)
	vals["server.http_s"] = median(httpS)

	sums := map[string]float64{}
	counts := map[string]int{}
	replayed := 0
	for _, o := range lr.outcomes {
		if replayed == w.replay {
			break
		}
		if o.err != nil {
			continue
		}
		tr.job = o.index
		var v layers
		var err error
		switch o.spec.Class {
		case classSort:
			v, err = replaySort(tr, o)
		case classStream:
			v, err = replayStream(tr, o, dir)
		case classSharded:
			v, err = replaySharded(tr, o, f, dir)
		}
		if err != nil {
			return vals, fmt.Errorf("replaying job %d: %w", o.index, err)
		}
		addSpanLayers(v, tr, o.index)
		for k, x := range v {
			sums[k] += x
			counts[k]++
		}
		replayed++
	}
	if replayed == 0 {
		return vals, fmt.Errorf("no successful job to replay")
	}
	for k, s := range sums {
		if ratioLayers[k] {
			vals[k] = s / float64(counts[k])
		} else {
			vals[k] = s / float64(replayed)
		}
	}
	vals["trace.replayed_jobs"] = float64(replayed)
	return vals, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// median is the middle value (mean of the middle two), 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the highest of a fixed percentile ladder that still has at
// least ten samples above it, with its nearest-rank value.
func tail(xs []float64) (float64, float64, bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		rank := int(math.Ceil(p / 100 * float64(len(s))))
		if rank >= 1 && len(s)-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 6, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
