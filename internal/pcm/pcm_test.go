package pcm

import (
	"fmt"
	"math"
	"testing"

	"approxsort/internal/rng"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Ranks: 0, BanksPerRank: 8, WriteQueueDepth: 1, ReadQueueDepth: 1, PageBytes: 4096, ReadNanos: 50},
		{Ranks: 4, BanksPerRank: 8, WriteQueueDepth: 0, ReadQueueDepth: 1, PageBytes: 4096, ReadNanos: 50},
		{Ranks: 4, BanksPerRank: 8, WriteQueueDepth: 1, ReadQueueDepth: 1, PageBytes: 1, ReadNanos: 50},
		{Ranks: 4, BanksPerRank: 8, WriteQueueDepth: 1, ReadQueueDepth: 1, PageBytes: 4096, ReadNanos: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestConfigRejectsNonPowerOfTwo(t *testing.T) {
	pages := DefaultConfig()
	pages.PageBytes = 3000
	banks := DefaultConfig()
	banks.Ranks = 3
	for name, c := range map[string]Config{"page": pages, "banks": banks} {
		if c.Validate() == nil {
			t.Errorf("non-power-of-two %s accepted", name)
		}
	}
}

// shiftSim is the copy-shift bank queue the ring replaced: each bank's
// pending stores in a slice whose completed prefix is copied away, with
// division-based page and bank mapping. It is the oracle for Sim.
type shiftSim struct {
	cfg      Config
	queues   [][]write
	lastPage []uint64
	stats    Stats
}

func newShiftSim(cfg Config) *shiftSim {
	s := &shiftSim{cfg: cfg, queues: make([][]write, cfg.Ranks*cfg.BanksPerRank)}
	for range s.queues {
		s.lastPage = append(s.lastPage, ^uint64(0))
	}
	return s
}

func (s *shiftSim) bank(addr uint64) int {
	return int(addr / uint64(s.cfg.PageBytes) % uint64(len(s.queues)))
}

func (s *shiftSim) prune(b int, now float64) {
	q := s.queues[b]
	i := 0
	for i < len(q) && q[i].start+q[i].dur <= now {
		i++
	}
	s.queues[b] = q[:copy(q, q[i:])]
}

func (s *shiftSim) write(addr uint64, now, dur float64) float64 {
	b := s.bank(addr)
	s.prune(b, now)
	page := addr / uint64(s.cfg.PageBytes)
	if f := s.cfg.SeqWriteFactor; f > 0 && f < 1 && page == s.lastPage[b] {
		dur *= f
		s.stats.SeqWriteHits++
	}
	s.lastPage[b] = page
	if q := s.queues[b]; len(q) >= s.cfg.WriteQueueDepth {
		s.stats.WriteQueueFullEvents++
		release := q[0].start + q[0].dur
		s.stats.WriteStallNanos += release - now
		now = release
		s.prune(b, now)
	}
	start := now
	if q := s.queues[b]; len(q) > 0 && q[len(q)-1].start+q[len(q)-1].dur > start {
		start = q[len(q)-1].start + q[len(q)-1].dur
	}
	s.queues[b] = append(s.queues[b], write{start: start, dur: dur})
	s.stats.Writes++
	return now
}

func (s *shiftSim) read(addr uint64, now float64) float64 {
	b := s.bank(addr)
	s.prune(b, now)
	s.lastPage[b] = addr / uint64(s.cfg.PageBytes)
	q := s.queues[b]
	start, pending := now, 0
	if len(q) > 0 && q[0].start < now {
		s.stats.ReadsDelayedByWrite++
		start = q[0].start + q[0].dur
		pending = 1
	}
	done := start + s.cfg.ReadNanos
	if pending < len(q) && q[pending].start < done {
		shift := done - q[pending].start
		for j := pending; j < len(q); j++ {
			q[j].start += shift
		}
	}
	s.stats.Reads++
	s.stats.ReadStallNanos += done - now
	return done
}

// TestRingQueueMatchesCopyShift drives Sim and the copy-shift oracle with
// one random read/write stream — few banks, shallow queues, irregular
// service times, with and without the sequential-write discount — and
// requires bit-identical completion times, queue depths and Stats.
func TestRingQueueMatchesCopyShift(t *testing.T) {
	for _, seqFactor := range []float64{0, 0.6} {
		cfg := DefaultConfig()
		cfg.WriteQueueDepth = 5
		cfg.SeqWriteFactor = seqFactor
		s, ref := New(cfg), newShiftSim(cfg)
		r := rng.New(17)
		now := 0.0
		for i := 0; i < 200000; i++ {
			addr := uint64(r.Intn(4*4096)) + uint64(r.Intn(3))*4096*32
			var got, want float64
			if r.Bernoulli(0.3) {
				got, want = s.Read(addr, now), ref.read(addr, now)
			} else {
				dur := 300 + 700*r.Float64()
				got, want = s.Write(addr, now, dur), ref.write(addr, now, dur)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("factor %v op %d: resume %v, oracle %v", seqFactor, i, got, want)
			}
			now = got + 100*r.Float64()
			if i%97 == 0 {
				ref.prune(ref.bank(addr), now)
				if d, w := s.QueueDepth(addr, now), len(ref.queues[ref.bank(addr)]); d != w {
					t.Fatalf("factor %v op %d: QueueDepth %d, oracle %d", seqFactor, i, d, w)
				}
			}
		}
		if got, want := fmt.Sprintf("%+x", s.Stats()), fmt.Sprintf("%+x", ref.stats); got != want {
			t.Fatalf("factor %v: stats %s, oracle %s", seqFactor, got, want)
		}
		if st := s.Stats(); st.WriteQueueFullEvents == 0 || st.ReadsDelayedByWrite == 0 {
			t.Errorf("factor %v: stream never stalled (%+v)", seqFactor, st)
		}
	}
}

func TestBankInterleaving(t *testing.T) {
	s := New(DefaultConfig())
	if s.Bank(0) == s.Bank(4096) {
		t.Error("adjacent pages map to the same bank")
	}
	if s.Bank(0) != s.Bank(4095) {
		t.Error("same page split across banks")
	}
	if s.Bank(0) != s.Bank(4096*32) {
		t.Error("interleave period wrong: 32 banks expected")
	}
}

func TestPostedWritesDoNotBlock(t *testing.T) {
	s := New(DefaultConfig())
	now := s.Write(0, 0, 1000)
	if now != 0 {
		t.Errorf("first write stalled CPU to %v", now)
	}
	if s.QueueDepth(0, 0) != 1 {
		t.Errorf("queue depth = %d", s.QueueDepth(0, 0))
	}
	// After the service time the queue drains.
	if s.QueueDepth(0, 1000) != 0 {
		t.Error("write did not drain")
	}
}

func TestWriteQueueFullStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteQueueDepth = 4
	s := New(cfg)
	now := 0.0
	for i := 0; i < 4; i++ {
		now = s.Write(0, now, 1000)
	}
	if now != 0 {
		t.Fatalf("queue filled early: now=%v", now)
	}
	// Fifth write must stall until the first drains at t=1000.
	now = s.Write(0, now, 1000)
	if now != 1000 {
		t.Errorf("full-queue write resumed at %v, want 1000", now)
	}
	st := s.Stats()
	if st.WriteQueueFullEvents != 1 {
		t.Errorf("WriteQueueFullEvents = %d", st.WriteQueueFullEvents)
	}
	if st.WriteStallNanos != 1000 {
		t.Errorf("WriteStallNanos = %v", st.WriteStallNanos)
	}
}

func TestReadLatencyIdleBank(t *testing.T) {
	s := New(DefaultConfig())
	done := s.Read(0, 100)
	if done != 150 {
		t.Errorf("idle-bank read completed at %v, want 150", done)
	}
}

func TestReadPriorityJumpsQueue(t *testing.T) {
	s := New(DefaultConfig())
	// Queue 10 writes of 1 µs each at t=0: they occupy the bank until
	// t=10000.
	for i := 0; i < 10; i++ {
		s.Write(0, 0, 1000)
	}
	// A read at t=100 waits only for the in-service write (ends t=1000),
	// not the whole queue.
	done := s.Read(0, 100)
	if done != 1050 {
		t.Errorf("read completed at %v, want 1050 (in-service write + 50ns)", done)
	}
	if s.Stats().ReadsDelayedByWrite != 1 {
		t.Errorf("ReadsDelayedByWrite = %d", s.Stats().ReadsDelayedByWrite)
	}
	// The queued writes were pushed back by the read: 9 writes remain,
	// resuming at 1050, so the queue drains at 1050+9000.
	if got := s.QueueDepth(0, 10000); got != 1 {
		t.Errorf("queue depth at t=10000 = %d, want 1 (pushed back)", got)
	}
	if got := s.QueueDepth(0, 10051); got != 0 {
		t.Errorf("queue depth at t=10051 = %d, want 0", got)
	}
}

func TestReadOnIdleBankIgnoresOtherBanks(t *testing.T) {
	s := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		s.Write(0, 0, 1000) // bank of page 0
	}
	done := s.Read(4096, 100) // different bank
	if done != 150 {
		t.Errorf("read on idle bank completed at %v, want 150", done)
	}
}

func TestBankParallelismSpreadsWrites(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteQueueDepth = 2
	s := New(cfg)
	// Striping writes across pages uses all 32 banks: 64 writes fit
	// without a stall.
	now := 0.0
	for i := 0; i < 64; i++ {
		now = s.Write(uint64(i)*4096, now, 1000)
	}
	if now != 0 {
		t.Errorf("striped writes stalled: now=%v", now)
	}
	// The same 64 writes on one bank (queue depth 2) must stall.
	s2 := New(cfg)
	now = 0.0
	for i := 0; i < 64; i++ {
		now = s2.Write(0, now, 1000)
	}
	if now == 0 {
		t.Error("single-bank burst did not stall")
	}
}

func TestSeqWriteDiscount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqWriteFactor = 0.5
	cfg.WriteQueueDepth = 2
	s := New(cfg)
	// First write to a page: full price; the next to the same page is
	// discounted. Observe through queue drain times.
	s.Write(0, 0, 1000)  // full 1000, ends 1000
	s.Write(64, 0, 1000) // same page: 500, ends 1500
	if got := s.Stats().SeqWriteHits; got != 1 {
		t.Fatalf("SeqWriteHits = %d, want 1", got)
	}
	if s.QueueDepth(0, 1499) != 1 {
		t.Error("discounted write finished early")
	}
	if s.QueueDepth(0, 1500) != 0 {
		t.Error("discounted write did not finish at 1500")
	}
	// A read to a different page closes the row.
	s.Read(4096*32, 2000) // same bank (page 32 maps to bank 0), other row
	s.Write(0, 3000, 1000)
	if got := s.Stats().SeqWriteHits; got != 1 {
		t.Errorf("row not closed by read: SeqWriteHits = %d", got)
	}
}

func TestSeqWriteFactorValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqWriteFactor = 1.5
	if cfg.Validate() == nil {
		t.Error("SeqWriteFactor > 1 accepted")
	}
}

func TestTimeMonotonicity(t *testing.T) {
	s := New(DefaultConfig())
	now := 0.0
	for i := 0; i < 1000; i++ {
		var next float64
		if i%3 == 0 {
			next = s.Read(uint64(i)*64, now)
		} else {
			next = s.Write(uint64(i)*64, now, 500)
		}
		if next < now {
			t.Fatalf("time went backwards at op %d: %v -> %v", i, now, next)
		}
		now = next
	}
	st := s.Stats()
	if st.Reads == 0 || st.Writes == 0 {
		t.Error("stats not accumulated")
	}
	if math.IsNaN(st.ReadStallNanos) || st.ReadStallNanos < 0 {
		t.Errorf("ReadStallNanos = %v", st.ReadStallNanos)
	}
}
