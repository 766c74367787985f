package experiments

import (
	"path/filepath"
	"testing"

	"approxsort/internal/mlc"
	"approxsort/internal/pcm"
	"approxsort/internal/sorts"
)

func TestRecordReplayTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.bin")
	events, size, err := RecordTrace(path, sorts.Quicksort{}, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 || size == 0 {
		t.Fatalf("empty capture: %d events, %d bytes", events, size)
	}
	replayed, st, err := ReplayTrace(path, pcm.DefaultConfig(), mlc.PreciseWriteNanos)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != events || st.Writes == 0 || st.Clock <= 0 {
		t.Errorf("replayed %d of %d events: %+v", replayed, events, st)
	}
	if _, _, err := ReplayTrace(filepath.Join(t.TempDir(), "missing"), pcm.DefaultConfig(), 1); err == nil {
		t.Error("missing trace file accepted")
	}
}
