package mem

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"approxsort/internal/mlc"
	"approxsort/internal/rng"
)

func TestPreciseRoundTrip(t *testing.T) {
	s := NewPreciseSpace()
	w := s.Alloc(100)
	for i := 0; i < 100; i++ {
		w.Set(i, uint32(i)*7)
	}
	for i := 0; i < 100; i++ {
		if got := w.Get(i); got != uint32(i)*7 {
			t.Fatalf("Get(%d) = %d, want %d", i, got, uint32(i)*7)
		}
	}
	st := w.Stats()
	if st.Reads != 100 || st.Writes != 100 {
		t.Errorf("stats reads=%d writes=%d, want 100/100", st.Reads, st.Writes)
	}
	if st.WriteNanos != 100*mlc.PreciseWriteNanos {
		t.Errorf("WriteNanos = %v, want %v", st.WriteNanos, 100*mlc.PreciseWriteNanos)
	}
	if st.ReadNanos != 100*mlc.ReadNanos {
		t.Errorf("ReadNanos = %v, want %v", st.ReadNanos, 100*mlc.ReadNanos)
	}
	if st.WriteEnergy != 100 {
		t.Errorf("WriteEnergy = %v, want 100", st.WriteEnergy)
	}
	if st.Corrupted != 0 {
		t.Errorf("precise memory reported %d corruptions", st.Corrupted)
	}
	if s.Approximate() {
		t.Error("precise space claims to be approximate")
	}
}

func TestSpaceAggregatesAcrossArrays(t *testing.T) {
	s := NewPreciseSpace()
	a, b := s.Alloc(10), s.Alloc(10)
	for i := 0; i < 10; i++ {
		a.Set(i, 1)
		b.Set(i, 2)
		_ = a.Get(i)
	}
	st := s.Stats()
	if st.Writes != 20 || st.Reads != 10 {
		t.Errorf("aggregate writes=%d reads=%d, want 20/10", st.Writes, st.Reads)
	}
	s.ResetStats()
	if st := s.Stats(); st.Writes != 0 || st.Reads != 0 {
		t.Errorf("ResetStats left writes=%d reads=%d", st.Writes, st.Reads)
	}
}

func TestApproxNearPreciseRoundTrip(t *testing.T) {
	s := NewApproxSpaceAt(mlc.PreciseT, 1)
	w := s.Alloc(2000)
	r := rng.New(2)
	vals := make([]uint32, w.Len())
	for i := range vals {
		vals[i] = r.Uint32()
		w.Set(i, vals[i])
	}
	errs := 0
	for i := range vals {
		if w.Get(i) != vals[i] {
			errs++
		}
	}
	if errs > 1 {
		t.Errorf("approx space at precise T corrupted %d/2000 words", errs)
	}
	if !s.Approximate() {
		t.Error("approx space claims to be precise")
	}
	st := s.Stats()
	if st.Iters < 2000*16 {
		t.Errorf("Iters = %d, want at least one pulse per cell", st.Iters)
	}
	// At T = 0.025 the per-write latency must be about the precise write
	// latency.
	perWrite := st.WriteNanos / float64(st.Writes)
	if math.Abs(perWrite-mlc.PreciseWriteNanos) > 0.05*mlc.PreciseWriteNanos {
		t.Errorf("per-write latency %v ns, want ~%v", perWrite, mlc.PreciseWriteNanos)
	}
}

func TestApproxCorruptsAtHighT(t *testing.T) {
	s := NewApproxSpaceAt(0.12, 3)
	w := s.Alloc(3000)
	r := rng.New(4)
	diff := 0
	for i := 0; i < w.Len(); i++ {
		v := r.Uint32()
		w.Set(i, v)
		if w.Get(i) != v {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("no corruption at T=0.12; model wiring broken")
	}
	if got := s.Stats().Corrupted; got != diff {
		t.Errorf("Corrupted stat %d != observed %d", got, diff)
	}
	// Approximate writes must be cheaper than precise ones.
	st := s.Stats()
	perWrite := st.WriteNanos / float64(st.Writes)
	if perWrite >= 0.6*mlc.PreciseWriteNanos {
		t.Errorf("approx per-write latency %v ns not cheaper than precise", perWrite)
	}
}

func TestApproxReadsAreStable(t *testing.T) {
	// With write-time materialization, repeated reads agree (contrast
	// mlc.AnalogArray).
	s := NewApproxSpaceAt(0.12, 5)
	w := s.Alloc(100)
	for i := 0; i < 100; i++ {
		w.Set(i, 0xdeadbeef)
	}
	for i := 0; i < 100; i++ {
		first := w.Get(i)
		for k := 0; k < 5; k++ {
			if w.Get(i) != first {
				t.Fatalf("read of word %d unstable", i)
			}
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Reads: 1, Writes: 2, ReadNanos: 3, WriteNanos: 4, WriteEnergy: 5, Iters: 6, Corrupted: 7}
	b := a
	a.Add(b)
	want := Stats{Reads: 2, Writes: 4, ReadNanos: 6, WriteNanos: 8, WriteEnergy: 10, Iters: 12, Corrupted: 14}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}

func TestEquivalentPreciseWrites(t *testing.T) {
	s := Stats{WriteNanos: 2500}
	if got := s.EquivalentPreciseWrites(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("EquivalentPreciseWrites = %v, want 2.5", got)
	}
}

func TestCopyLoadReadAll(t *testing.T) {
	s := NewPreciseSpace()
	src, dst := s.Alloc(5), s.Alloc(5)
	Load(src, []uint32{5, 4, 3, 2, 1})
	Copy(dst, src)
	got := ReadAll(dst)
	for i, v := range []uint32{5, 4, 3, 2, 1} {
		if got[i] != v {
			t.Fatalf("ReadAll[%d] = %d, want %d", i, got[i], v)
		}
	}
	st := s.Stats()
	// Load: 5 writes. Copy: 5 reads + 5 writes. ReadAll: 5 reads.
	if st.Writes != 10 || st.Reads != 10 {
		t.Errorf("writes=%d reads=%d, want 10/10", st.Writes, st.Reads)
	}
}

func TestCopyPanicsOnMismatch(t *testing.T) {
	s := NewPreciseSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("Copy with mismatched lengths did not panic")
		}
	}()
	Copy(s.Alloc(3), s.Alloc(4))
}

func TestLoadPanicsOnMismatch(t *testing.T) {
	s := NewPreciseSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("Load with mismatched lengths did not panic")
		}
	}()
	Load(s.Alloc(3), []uint32{1, 2})
}

type recordingSink struct {
	ops   []Op
	addrs []uint64
}

func (r *recordingSink) Access(op Op, addr uint64, size int) {
	r.ops = append(r.ops, op)
	r.addrs = append(r.addrs, addr)
}

func TestSinkReceivesAccesses(t *testing.T) {
	s := NewPreciseSpace()
	sink := &recordingSink{}
	s.SetSink(sink)
	w := s.Alloc(4)
	w.Set(0, 1)
	w.Set(3, 2)
	_ = w.Get(3)
	if len(sink.ops) != 3 {
		t.Fatalf("sink saw %d accesses, want 3", len(sink.ops))
	}
	if sink.ops[0] != OpWrite || sink.ops[2] != OpRead {
		t.Errorf("ops = %v", sink.ops)
	}
	if sink.addrs[1] != sink.addrs[0]+12 {
		t.Errorf("addresses %v not 12 bytes apart", sink.addrs[:2])
	}
	if sink.addrs[2] != sink.addrs[1] {
		t.Errorf("read address %d != write address %d", sink.addrs[2], sink.addrs[1])
	}
}

// rangeRecorder is a RangeSink that expands each range into the per-word
// events it is defined to equal, counting the range calls.
type rangeRecorder struct {
	recordingSink
	ranges int
}

func (r *rangeRecorder) AccessRange(op Op, addr uint64, words int) {
	r.ranges++
	for j := 0; j < words; j++ {
		r.Access(op, addr+uint64(j)*4, 4)
	}
}

type traceable interface {
	Space
	SetSink(Sink)
}

// TestTracedBulkRangeEventsMatchPerWord: with a RangeSink attached —
// also one attached after Alloc — traced GetSlice/SetSlice emit range
// events whose expansion is exactly the per-word stream a plain sink
// receives, and the stored data and accounting are unchanged.
func TestTracedBulkRangeEventsMatchPerWord(t *testing.T) {
	spaces := map[string]func() traceable{
		"precise": func() traceable { return NewPreciseSpace() },
		"approx":  func() traceable { return NewApproxSpaceAt(0.1, 9) },
	}
	src := make([]uint32, 300)
	for i := range src {
		src[i] = uint32(i) * 2654435761
	}
	for name, newSpace := range spaces {
		run := func(sink Sink) ([]uint32, Stats) {
			sp := newSpace()
			early := sp.Alloc(100)
			sp.SetSink(sink)
			late := sp.Alloc(len(src))
			Load(late, src)
			SetSlice(early, 3, src[:90])
			buf := make([]uint32, 77)
			GetSlice(late, 5, buf)
			early.Set(0, buf[0])
			_ = late.Get(299)
			return append(PeekAll(early), PeekAll(late)...), sp.Stats()
		}
		plain, ranged := &recordingSink{}, &rangeRecorder{}
		wantData, wantStats := run(plain)
		gotData, gotStats := run(ranged)
		if ranged.ranges != 3 {
			t.Errorf("%s: %d range events, want 3 (one per bulk call)", name, ranged.ranges)
		}
		if !reflect.DeepEqual(ranged.ops, plain.ops) || !reflect.DeepEqual(ranged.addrs, plain.addrs) {
			t.Errorf("%s: range events expand to a different stream than per-word events", name)
		}
		if !reflect.DeepEqual(gotData, wantData) || gotStats != wantStats {
			t.Errorf("%s: range tracing changed data or stats: %v vs %v", name, gotStats, wantStats)
		}
	}
}

func TestArraysGetDistinctPageAlignedAddresses(t *testing.T) {
	s := NewApproxSpaceAt(0.055, 6)
	sink := &recordingSink{}
	s.SetSink(sink)
	a, b := s.Alloc(1), s.Alloc(5000)
	a.Set(0, 1)
	b.Set(0, 1)
	if len(sink.addrs) != 2 {
		t.Fatalf("sink saw %d accesses", len(sink.addrs))
	}
	if sink.addrs[0] == sink.addrs[1] {
		t.Error("two arrays share a base address")
	}
	if sink.addrs[1]%4096 != 0 {
		t.Errorf("second array base %d not page aligned", sink.addrs[1])
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Errorf("Op strings: %q %q", OpRead, OpWrite)
	}
}

func TestPreciseWordsAlwaysReadBack(t *testing.T) {
	s := NewPreciseSpace()
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		w := s.Alloc(len(vals))
		Load(w, vals)
		for i, v := range vals {
			if w.Get(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
