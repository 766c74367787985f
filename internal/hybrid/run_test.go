package hybrid

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"approxsort/internal/cache"
	"approxsort/internal/mem"
	"approxsort/internal/pcm"
	"approxsort/internal/rng"
)

// refSystem is the per-access simulator the event log replaced: every
// word access runs straight through the hierarchy and the device, with
// no log, no range elision and no second goroutine. It is the oracle the
// logged paths must match bit for bit.
type refSystem struct {
	hier            *cache.Hierarchy
	dev             *pcm.Sim
	clock           float64
	reads, writes   uint64
	readHits        [4]uint64
	cacheReadNanos  float64
	memReadNanos    float64
	writeIssueNanos float64
}

func newRefSystem() *refSystem {
	return &refSystem{hier: cache.NewHierarchy(), dev: pcm.New(pcm.DefaultConfig())}
}

func (s *refSystem) access(op mem.Op, phys uint64, writeNanos float64) {
	if op == mem.OpRead {
		s.reads++
		level, nanos := s.hier.Read(phys)
		s.readHits[level]++
		s.cacheReadNanos += nanos
		s.clock += nanos
		if level == 0 {
			done := s.dev.Read(phys, s.clock)
			s.memReadNanos += done - s.clock
			s.clock = done
		}
		return
	}
	s.writes++
	s.hier.Write(phys)
	resume := s.dev.Write(phys, s.clock, writeNanos)
	s.writeIssueNanos += resume - s.clock
	s.clock = resume
}

func (s *refSystem) stats() Stats {
	return Stats{
		Clock: s.clock, Reads: s.reads, Writes: s.writes,
		L1Hits: s.readHits[1], L2Hits: s.readHits[2], L3Hits: s.readHits[3], MemReads: s.readHits[0],
		CacheReadNanos: s.cacheReadNanos, MemReadNanos: s.memReadNanos, WriteStallNanos: s.writeIssueNanos,
		Device: s.dev.Stats(),
	}
}

// statsBits renders every field of st, floats in exact hexadecimal, so
// two snapshots compare equal only when they are bit-for-bit identical.
func statsBits(st Stats) string { return fmt.Sprintf("%+x", st) }

// levelCounts renders each cache level's own hit and miss counters, which
// Stats does not carry.
func levelCounts(h *cache.Hierarchy) string {
	return fmt.Sprint(h.L1.Hits(), h.L1.Misses(), h.L2.Hits(), h.L2.Misses(), h.L3.Hits(), h.L3.Misses())
}

// step is one access of a random stream: a single word access or a range.
type step struct {
	region int
	op     mem.Op
	addr   uint64
	words  int // 0 = single Access
}

// randomStream interleaves single accesses (some unaligned, as a replayed
// trace may carry) with line-crossing ranges over a few hot pages, so
// every cache level hits and misses and the bank queues fill and stall.
func randomStream(seed uint64, steps int) []step {
	r := rng.New(seed)
	out := make([]step, steps)
	for i := range out {
		st := step{region: r.Intn(3), op: mem.OpRead}
		if r.Bernoulli(0.45) {
			st.op = mem.OpWrite
		}
		switch r.Intn(4) {
		case 0: // hot working set, L1-resident
			st.addr = uint64(r.Intn(8 << 10))
		case 1: // L2/L3-sized working set
			st.addr = uint64(r.Intn(4 << 20))
		case 2: // cold, spread over banks
			st.addr = uint64(r.Intn(1 << 30))
		default: // one page, one bank: queue pressure
			st.addr = uint64(r.Intn(4096))
		}
		if r.Bernoulli(0.5) {
			st.addr &^= 3
		}
		if r.Bernoulli(0.4) {
			st.words = 1 + r.Intn(70)
		}
		out[i] = st
	}
	// One range longer than a single event record.
	out = append(out, step{region: 1, op: mem.OpWrite, addr: 1 << 20, words: maxRangeWords + 100})
	out = append(out, step{region: 1, op: mem.OpRead, addr: 1<<20 + 8, words: maxRangeWords + 37})
	return out
}

var testWriteNanos = []float64{1000, 670.25, 333.3}

func newTestSystem() (*System, []*Region) {
	sys := New()
	regs := make([]*Region, len(testWriteNanos))
	for i, wn := range testWriteNanos {
		regs[i] = sys.Region("r", wn)
	}
	return sys, regs
}

// replay drives stream into regs: ranges through AccessRange when ranges
// is set, and as the per-word Access calls they are defined to equal
// otherwise.
func replay(stream []step, regs []*Region, ranges bool) {
	for _, st := range stream {
		reg := regs[st.region]
		switch {
		case st.words == 0:
			reg.Access(st.op, st.addr, 4)
		case ranges:
			reg.AccessRange(st.op, st.addr, st.words)
		default:
			for j := 0; j < st.words; j++ {
				reg.Access(st.op, st.addr+uint64(j)*4, 4)
			}
		}
	}
}

// TestLoggedPathsMatchPerAccessOracle is the simulator's equivalence
// property: the per-access oracle, per-word Access, AccessRange, and
// AccessRange inside Run all end in bit-identical Stats.
func TestLoggedPathsMatchPerAccessOracle(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		stream := randomStream(seed, 20000)

		ref := newRefSystem()
		for _, st := range stream {
			base := uint64(st.region) * regionBytes
			n := max(st.words, 1)
			for j := 0; j < n; j++ {
				ref.access(st.op, base+st.addr+uint64(j)*4, testWriteNanos[st.region])
			}
		}
		want, wantLevels := statsBits(ref.stats()), levelCounts(ref.hier)

		paths := map[string]func() *System{
			"per-word Access": func() *System {
				sys, regs := newTestSystem()
				replay(stream, regs, false)
				return sys
			},
			"AccessRange": func() *System {
				sys, regs := newTestSystem()
				replay(stream, regs, true)
				return sys
			},
			"AccessRange in Run": func() *System {
				sys, regs := newTestSystem()
				sys.Run(func() { replay(stream, regs, true) })
				return sys
			},
		}
		for name, run := range paths {
			sys := run()
			st := sys.Stats()
			if got := statsBits(st); got != want {
				t.Fatalf("seed %d, %s:\n got %s\nwant %s", seed, name, got, want)
			}
			if got := levelCounts(sys.m.hier); got != wantLevels {
				t.Fatalf("seed %d, %s: cache level counters %s, want %s", seed, name, got, wantLevels)
			}
			if err := st.Check(); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, name, err)
			}
		}
	}
}

// TestStatsInsideRunWaitsForDrain pins the contract chosen for reads of
// the simulator state inside Run: Stats and Clock wait until the
// simulator goroutine has applied every logged access, so they see
// exactly the inline values and never race with the goroutine (run
// under -race). AdvanceClock and Region are ordered the same way.
func TestStatsInsideRunWaitsForDrain(t *testing.T) {
	stream := randomStream(7, 6000)
	var want []string
	inline, regs := newTestSystem()
	for i := 0; i < len(stream); i += 500 {
		replay(stream[i:min(i+500, len(stream))], regs, true)
		inline.AdvanceClock(10)
		want = append(want, statsBits(inline.Stats()))
	}

	sys, regs := newTestSystem()
	var got []string
	sys.Run(func() {
		for i := 0; i < len(stream); i += 500 {
			replay(stream[i:min(i+500, len(stream))], regs, true)
			sys.AdvanceClock(10)
			if c := sys.Clock(); c != sys.Stats().Clock {
				t.Errorf("Clock %v disagrees with Stats().Clock", c)
			}
			got = append(got, statsBits(sys.Stats()))
		}
		// A region created mid-Run is usable at once.
		late := sys.Region("late", 500)
		late.Access(mem.OpWrite, 0, 4)
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Stats inside Run differ from the inline snapshots")
	}
	if st := sys.Stats(); st.Writes != inline.Stats().Writes+1 {
		t.Errorf("late region's write not applied: %d writes", st.Writes)
	}
}

// waitGoroutines polls until the goroutine count drops to n: a goroutine
// that has closed its done channel may still be returning.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: Run leaked its simulator", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunJoinsAndReraisesOnPanic: when fn panics, Run still drains the
// log and joins its goroutine, then re-raises fn's panic value; the
// system stays usable inline with every access fn logged applied.
func TestRunJoinsAndReraisesOnPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	sys, regs := newTestSystem()
	stream := randomStream(11, 3000)
	func() {
		defer func() {
			if got := recover(); got != "boom" {
				t.Fatalf("recovered %v, want fn's panic", got)
			}
		}()
		sys.Run(func() {
			replay(stream, regs, true)
			panic("boom")
		})
	}()
	waitGoroutines(t, before)

	ref, refRegs := newTestSystem()
	replay(stream, refRegs, true)
	if got, want := statsBits(sys.Stats()), statsBits(ref.Stats()); got != want {
		t.Fatalf("accesses before the panic not fully applied:\n got %s\nwant %s", got, want)
	}
	// The system runs again after a panicked Run.
	sys.Run(func() { regs[0].Access(mem.OpRead, 0, 4) })
	if sys.Stats().Reads != ref.Stats().Reads+1 {
		t.Error("Run after a panicked Run lost an access")
	}
}

// TestRunReraisesSimulatorPanic: a panic on the simulator goroutine does
// not kill the process; Run joins and re-raises it on the caller.
func TestRunReraisesSimulatorPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	sys, regs := newTestSystem()
	defer func() {
		if recover() == nil {
			t.Fatal("simulator panic swallowed")
		}
		waitGoroutines(t, before)
	}()
	sys.Run(func() {
		// A store to a region that does not exist.
		sys.push(evWrite | uint64(maxRegions-1)<<evRegionShift)
		// Enough traffic afterwards to fill every chunk: the producer
		// must not block on the dead simulator.
		for i := 0; i < pipeChunks*chunkEvents*2; i++ {
			regs[0].Access(mem.OpWrite, uint64(i%4096)*4, 4)
		}
	})
}

func TestRunDoesNotNest(t *testing.T) {
	sys := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nested Run accepted")
		}
	}()
	sys.Run(func() { sys.Run(func() {}) })
}

func TestEventOffsetOverflowPanics(t *testing.T) {
	r := New().Region("r", 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("offset beyond the event field accepted")
		}
	}()
	r.Access(mem.OpRead, evOffsetMask+1, 4)
}
