// Package parallel provides the deterministic bounded worker pool behind
// every experiment sweep in this repository.
//
// The paper's campaigns are grids of independent points — (algorithm × T)
// or (algorithm × n) — which makes them embarrassingly parallel, but only
// if parallelism cannot change the numbers. The contract here is that
// Map's output is a pure function of (points, fn): result order follows
// point order, the reported error is the one at the lowest point index,
// and nothing depends on the worker count or goroutine scheduling. Callers
// uphold their half of the contract by deriving each point's RNG stream
// from the point's coordinates (see rng.Split), never from a loop index or
// from shared mutable state.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count setting: any n >= 1 is used as-is,
// anything else means one worker per available CPU. It is the default
// behind cmd/study's -workers flag.
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map applies fn to every point with at most Workers(workers) calls in
// flight and returns the results in point order. Grids flatten row-major
// into the points slice; fn receives the point's index and value.
//
// Determinism: results[i] depends only on (i, points[i], fn). If any
// points fail, Map returns the error of the lowest failing index — also
// independent of scheduling: points are claimed in index order, so by the
// time any error surfaces, every lower-indexed point has already been
// claimed and is run to completion. After an error is recorded, idle
// workers stop claiming new points; in-flight points finish. Map never
// leaks goroutines: it returns only after every worker has exited.
func Map[P, R any](points []P, workers int, fn func(i int, p P) (R, error)) ([]R, error) {
	n := len(points)
	results := make([]R, n)
	if n == 0 {
		return results, nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i, p := range points {
			r, err := fn(i, p)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	// Each worker buffers its (index, result) pairs in a private shard
	// and the shards merge after the barrier, so workers never store
	// into the shared results slice concurrently — adjacent small
	// results would otherwise false-share cache lines across cores on
	// every store. The merge is order-insensitive: indices are claimed
	// uniquely, so each results slot is written exactly once.
	type indexed struct {
		i int
		r R
	}
	shards := make([][]indexed, workers)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]indexed, 0, n/workers+1)
			defer func() { shards[w] = local }()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				r, err := fn(i, points[i])
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				local = append(local, indexed{i: i, r: r})
			}
		}(w)
	}
	wg.Wait()
	for _, shard := range shards {
		for _, e := range shard {
			results[e.i] = e.r
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
