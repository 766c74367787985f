package experiments

import (
	"os"

	"approxsort/internal/dataset"
	"approxsort/internal/hybrid"
	"approxsort/internal/mem"
	"approxsort/internal/pcm"
	"approxsort/internal/rng"
	"approxsort/internal/sorts"
	"approxsort/internal/trace"
)

// RecordTrace sorts n uniform keys with alg in precise memory and writes
// the sort's memory-access trace to path: the capture half of the
// Section 3.2 trace-driven methodology. It returns the number of events
// and the file's size in bytes.
func RecordTrace(path string, alg sorts.Algorithm, n int, seed uint64) (events int, size int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return 0, 0, err
	}
	space := mem.NewPreciseSpace()
	p := sorts.Pair{Keys: space.Alloc(n), IDs: space.Alloc(n)}
	mem.Load(p.Keys, dataset.Uniform(n, seed))
	mem.Load(p.IDs, dataset.IDs(n))
	// The capture is a single stream into one sink, so batching through
	// a Buffered cannot reorder anything the encoder observes.
	sink := trace.NewBuffered(w, 0)
	space.SetSink(sink) // trace starts after warm-up, like the paper
	alg.Sort(p, sorts.Env{KeySpace: space, IDSpace: space, R: rng.New(seed ^ 0xfeed)})
	sink.Flush()
	if err := w.Close(); err != nil {
		return 0, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	return w.Count(), info.Size(), f.Close()
}

// ReplayTrace replays the trace at path through the Table 1 cache
// hierarchy and the PCM device dev, charging writeNanos per device
// write. It returns the number of events replayed and the system's
// statistics.
func ReplayTrace(path string, dev pcm.Config, writeNanos float64) (int, hybrid.Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, hybrid.Stats{}, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return 0, hybrid.Stats{}, err
	}
	sys := hybrid.NewWithConfig(dev)
	events, err := r.ReplayAll(sys.Region("trace", writeNanos))
	if err != nil {
		return 0, hybrid.Stats{}, err
	}
	return events, sys.Stats(), nil
}
