package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"approxsort/internal/mlc"
	"approxsort/internal/server"
)

// serverWorkers is each sortd's worker-pool size: at most the host's two
// cores, as in the deployment the workloads model.
const serverWorkers = 2

// fleet is the in-process deployment a workload runs against: one sortd,
// or a coordinator sortd in front of shard sortds.
type fleet struct {
	front   *httptest.Server
	srv     *server.Server
	shards  []*server.Server
	shardTS []*httptest.Server
	dir     string
	client  *http.Client
}

func (f *fleet) base() string { return f.front.URL }

func (f *fleet) shardURLs() []string {
	urls := make([]string, len(f.shardTS))
	for i, ts := range f.shardTS {
		urls[i] = ts.URL
	}
	return urls
}

// startFleet constructs the workload's servers and waits for every
// /healthz to answer 200.
func startFleet(w workload, dir string) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	for i := 0; i < w.shards; i++ {
		s := server.New(server.Config{Workers: serverWorkers, StreamDir: dir})
		f.shards = append(f.shards, s)
		f.shardTS = append(f.shardTS, httptest.NewServer(s.Handler()))
	}
	f.srv = server.New(server.Config{Workers: serverWorkers, StreamDir: dir, ShardNodes: f.shardURLs()})
	f.front = httptest.NewServer(f.srv.Handler())
	for _, u := range append([]string{f.base()}, f.shardURLs()...) {
		resp, err := f.client.Get(u + "/healthz")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("healthz: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			f.close()
			return nil, fmt.Errorf("healthz %s: HTTP %d", u, resp.StatusCode)
		}
	}
	return f, nil
}

// close drains every server, stops the listeners and removes the job
// directories.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if f.front != nil {
		f.front.Close()
		f.srv.Shutdown(ctx)
	}
	for i, ts := range f.shardTS {
		ts.Close()
		f.shards[i].Shutdown(ctx)
	}
	f.client.CloseIdleConnections()
	os.RemoveAll(f.dir)
}

// setup builds the fleet from cold — empty MLC table cache, fresh
// servers — through /healthz 200 and one warm-up job per distinct
// backend point, reps times, and returns the last fleet with every
// set-up duration. All but the last fleet are torn down.
func setup(w workload, dir string, reps int) (*fleet, []float64, error) {
	var times []float64
	var f *fleet
	for r := 0; r < reps; r++ {
		if f != nil {
			f.close()
		}
		mlc.SharedTables().Reset()
		start := time.Now()
		var err error
		f, err = startFleet(w, filepath.Join(dir, fmt.Sprintf("fleet-%d", r)))
		if err != nil {
			return nil, nil, err
		}
		for _, spec := range w.warmups {
			if o := runJob(f, spec); o.err != nil {
				f.close()
				return nil, nil, fmt.Errorf("warm-up job: %w", o.err)
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return f, times, nil
}

// outcome is one job as the client saw it.
type outcome struct {
	index   int
	spec    jobSpec
	latency float64 // POST sent → checked output held, seconds
	respAt  time.Time
	sentAt  time.Time
	doneAt  time.Time
	job     server.Job // the job record, keys dropped
	// rejected marks a 429; err any failure (HTTP, status, check).
	rejected bool
	err      error
}

// runJob sends one job, downloads its output where the class has one,
// and checks it against the reference.
func runJob(f *fleet, spec jobSpec) outcome {
	o := outcome{spec: spec}
	body, err := spec.body()
	if err != nil {
		o.err = err
		return o
	}
	ref, err := spec.keys()
	if err != nil {
		o.err = err
		return o
	}
	want := fingerprint(ref)
	ref = nil

	o.sentAt = time.Now()
	resp, err := f.client.Post(f.base()+spec.path(), "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.respAt = time.Now()
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.rejected = resp.StatusCode == http.StatusTooManyRequests
		o.err = fmt.Errorf("POST %s: HTTP %d: %s", spec.path(), resp.StatusCode, bytes.TrimSpace(raw))
		return o
	}
	if err := json.Unmarshal(raw, &o.job); err != nil {
		o.err = fmt.Errorf("decoding job: %w", err)
		return o
	}
	if err := checkFields(spec, o.job); err != nil {
		o.err = err
		return o
	}
	if spec.Class == classSort {
		o.err = checkKeys(o.job.Result.Keys, want)
		o.job.Result.Keys = nil
	} else {
		o.err = downloadCheck(f, o.job.ID, want)
	}
	o.doneAt = time.Now()
	o.latency = o.doneAt.Sub(o.sentAt).Seconds()
	return o
}

func downloadCheck(f *fleet, id string, want multiset) error {
	resp, err := f.client.Get(f.base() + "/v1/jobs/" + id + "/output")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET output of %s: HTTP %d", id, resp.StatusCode)
	}
	return checkStream(resp.Body, want)
}

// loopResult is one closed-loop measurement.
type loopResult struct {
	outcomes []outcome // in job-list order
	// rates and peaksMB are per window: a window closes each time
	// another workload cycle of jobs has completed. rates is the
	// window's verified records per second, peaksMB its peak RSS.
	rates   []float64
	peaksMB []float64
}

// runLoop drives the workload's clients as a closed loop: each client
// takes the next job of the list, waits for its checked output, and
// takes another, until dur has passed and the list sits on a cycle
// boundary.
func runLoop(f *fleet, w workload, seed uint64, dur time.Duration) loopResult {
	var (
		mu       sync.Mutex
		next     int
		outcomes []outcome
		lr       loopResult
		winRecs  float64
	)
	rss := newPeakRSS()
	start := time.Now()
	winStart := start
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if time.Since(start) >= dur && next%w.cycle == 0 {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				o := runJob(f, w.job(seed, i))
				o.index = i
				if o.err != nil {
					o.doneAt = time.Now()
				}
				mu.Lock()
				outcomes = append(outcomes, o)
				if o.err == nil {
					winRecs += float64(o.spec.Dataset.N)
				}
				if len(outcomes)%w.cycle == 0 {
					lr.rates = append(lr.rates, winRecs/o.doneAt.Sub(winStart).Seconds())
					lr.peaksMB = append(lr.peaksMB, rss.window())
					winRecs, winStart = 0, o.doneAt
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(outcomes, func(a, b int) bool { return outcomes[a].index < outcomes[b].index })
	lr.outcomes = outcomes
	return lr
}

// peakRSS measures the process's peak resident set size per window. It
// resets the kernel's high-water mark (/proc/self/clear_refs) at each
// window start and reads VmHWM at the window end. Where the reset is not
// permitted, every window reports the process-lifetime getrusage maxrss.
type peakRSS struct{ resettable bool }

func newPeakRSS() *peakRSS { return &peakRSS{resettable: resetHWM() == nil} }

func resetHWM() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// window returns the peak RSS in MB since the previous call (or since
// construction) and starts the next window.
func (p *peakRSS) window() float64 {
	if p.resettable {
		if b, err := os.ReadFile("/proc/self/status"); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
					if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
						resetHWM()
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}
