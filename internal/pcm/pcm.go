// Package pcm is the main-memory timing simulator of the paper's Table 1:
// a PCM device with 4 ranks of 8 banks, a 32-entry write queue and an
// 8-entry read queue per bank, and read-priority scheduling. It models the
// CPU-visible cost of the access stream that misses (reads) or writes
// through (stores) the cache hierarchy:
//
//   - Stores are posted: the CPU deposits them in the owning bank's write
//     queue and continues, stalling only when the queue is full.
//   - Loads block the CPU. A load must wait for the operation currently
//     occupying its bank (writes are not preempted mid-flight) but jumps
//     ahead of all *queued* writes — read-priority scheduling — pushing
//     those writes back.
//
// Banks are interleaved at page granularity (Table 1: 4 KB pages). Write
// service time is supplied per request so precise and approximate regions
// can share one device.
package pcm

import (
	"fmt"
	"math/bits"
)

// Config describes the device geometry and timing.
type Config struct {
	// Ranks and BanksPerRank give the bank-level parallelism.
	Ranks, BanksPerRank int
	// WriteQueueDepth and ReadQueueDepth are per-bank queue capacities.
	WriteQueueDepth, ReadQueueDepth int
	// PageBytes is the bank-interleaving granularity.
	PageBytes int
	// ReadNanos is the array-read service time.
	ReadNanos float64
	// SeqWriteFactor scales the service time of a write that lands on
	// the same page its bank last accessed (a row-buffer hit). 1 (and
	// 0) disable the effect — the paper's base model assumes random and
	// sequential writes cost the same, and its Section 5 names this
	// refinement as future work. (Measured outcome: both the hybrid and
	// the baseline execution benefit, so the discount does not by itself
	// raise the hybrid advantage; see EXPERIMENTS.md.)
	SeqWriteFactor float64
}

// DefaultConfig returns the Table 1 parameters: 4 ranks × 8 banks, 4 KB
// pages, 32-entry write and 8-entry read queues, 50 ns reads.
func DefaultConfig() Config {
	return Config{
		Ranks:           4,
		BanksPerRank:    8,
		WriteQueueDepth: 32,
		ReadQueueDepth:  8,
		PageBytes:       4096,
		ReadNanos:       50,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Ranks < 1 || c.BanksPerRank < 1 {
		return fmt.Errorf("pcm: need at least one bank, got %d×%d", c.Ranks, c.BanksPerRank)
	}
	if c.WriteQueueDepth < 1 || c.ReadQueueDepth < 1 {
		return fmt.Errorf("pcm: queue depths must be positive (%d, %d)", c.WriteQueueDepth, c.ReadQueueDepth)
	}
	if c.PageBytes < 64 {
		return fmt.Errorf("pcm: PageBytes = %d too small", c.PageBytes)
	}
	// Page and bank are a shift and a mask of the address.
	if c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("pcm: PageBytes = %d is not a power of two", c.PageBytes)
	}
	if banks := c.Ranks * c.BanksPerRank; banks&(banks-1) != 0 {
		return fmt.Errorf("pcm: %d×%d banks is not a power of two", c.Ranks, c.BanksPerRank)
	}
	if c.ReadNanos <= 0 {
		return fmt.Errorf("pcm: ReadNanos must be positive, got %v", c.ReadNanos)
	}
	if c.SeqWriteFactor < 0 || c.SeqWriteFactor > 1 {
		return fmt.Errorf("pcm: SeqWriteFactor = %v out of [0, 1]", c.SeqWriteFactor)
	}
	return nil
}

// write is one queued store: its service duration, scheduled by [start,
// start+dur).
type write struct {
	start float64
	dur   float64
}

// bank holds the per-bank schedule: the pending writes, FIFO and already
// laid out back-to-back in time. They live in a fixed ring of
// WriteQueueDepth entries — the n entries from head on, wrapping — so
// retiring completed stores advances head instead of copying.
type bank struct {
	queue   []write // ring storage; scheduled, not yet known-complete stores
	head, n int
	// lastPage tracks the open row for the sequential-write discount;
	// ^0 means no row open yet.
	lastPage uint64
}

// Stats summarizes a simulation.
type Stats struct {
	// Reads and Writes count serviced requests.
	Reads, Writes uint64
	// ReadStallNanos is CPU time spent blocked on loads.
	ReadStallNanos float64
	// WriteStallNanos is CPU time spent blocked on full write queues.
	WriteStallNanos float64
	// WriteQueueFullEvents counts stores that found their queue full.
	WriteQueueFullEvents uint64
	// ReadsDelayedByWrite counts loads that arrived while a write
	// occupied their bank.
	ReadsDelayedByWrite uint64
	// SeqWriteHits counts stores that received the row-buffer discount
	// (zero unless Config.SeqWriteFactor is set).
	SeqWriteHits uint64
}

// Sim is the device simulator. It is driven by a monotonically
// non-decreasing CPU clock supplied by the caller. Not safe for
// concurrent use.
type Sim struct {
	cfg       Config
	banks     []bank
	pageShift uint
	bankMask  uint64
	stats     Stats
}

// New returns a simulator for cfg. It panics on invalid configuration
// (programming error).
func New(cfg Config) *Sim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nb := cfg.Ranks * cfg.BanksPerRank
	s := &Sim{
		cfg:       cfg,
		banks:     make([]bank, nb),
		pageShift: uint(bits.TrailingZeros(uint(cfg.PageBytes))),
		bankMask:  uint64(nb - 1),
	}
	ring := make([]write, nb*cfg.WriteQueueDepth)
	for i := range s.banks {
		d := cfg.WriteQueueDepth
		s.banks[i].queue = ring[i*d : (i+1)*d : (i+1)*d]
		s.banks[i].lastPage = ^uint64(0)
	}
	return s
}

// page returns addr's page number and the bank that page interleaves to.
func (s *Sim) page(addr uint64) (uint64, *bank) {
	page := addr >> s.pageShift
	return page, &s.banks[page&s.bankMask]
}

// Bank returns the bank index servicing addr.
func (s *Sim) Bank(addr uint64) int {
	return int(addr >> s.pageShift & s.bankMask)
}

// at returns the j-th oldest pending store (j < b.n, or j == b.n to
// address the free slot behind the tail).
func (b *bank) at(j int) *write {
	k := b.head + j
	if k >= len(b.queue) {
		k -= len(b.queue)
	}
	return &b.queue[k]
}

// prune retires queue entries that completed at or before now.
func (b *bank) prune(now float64) {
	for b.n > 0 {
		w := &b.queue[b.head]
		if w.start+w.dur > now {
			return
		}
		b.head++
		if b.head == len(b.queue) {
			b.head = 0
		}
		b.n--
	}
}

// Write posts a store of the given service duration at CPU time now and
// returns the time at which the CPU may continue (== now unless the write
// queue was full).
func (s *Sim) Write(addr uint64, now, durNanos float64) float64 {
	page, b := s.page(addr)
	b.prune(now)
	if f := s.cfg.SeqWriteFactor; f > 0 && f < 1 && page == b.lastPage {
		durNanos *= f
		s.stats.SeqWriteHits++
	}
	b.lastPage = page
	if b.n == len(b.queue) {
		// Stall until the oldest queued store drains.
		s.stats.WriteQueueFullEvents++
		oldest := b.queue[b.head]
		release := oldest.start + oldest.dur
		s.stats.WriteStallNanos += release - now
		now = release
		b.prune(now)
	}
	start := now
	if b.n > 0 {
		if last := b.at(b.n - 1); last.start+last.dur > start {
			start = last.start + last.dur
		}
	}
	*b.at(b.n) = write{start: start, dur: durNanos}
	b.n++
	s.stats.Writes++
	return now
}

// Read services a blocking load at CPU time now and returns its completion
// time. Read priority: the load waits only for the store currently in
// service (if any), then executes; every store scheduled after it is
// pushed back by the read's service time.
func (s *Sim) Read(addr uint64, now float64) float64 {
	page, b := s.page(addr)
	b.prune(now)
	// Reads open the row too, closing any sequential write streak.
	b.lastPage = page
	start := now
	pending := 0 // index of the first store that has not begun service
	if first := &b.queue[b.head]; b.n > 0 && first.start < now {
		// A store is mid-service; it cannot be preempted.
		s.stats.ReadsDelayedByWrite++
		start = first.start + first.dur
		pending = 1
	}
	done := start + s.cfg.ReadNanos
	// The read jumps ahead of every not-yet-started store: push them
	// back (uniformly, preserving their back-to-back layout) so the
	// first resumes when the read finishes.
	if pending < b.n && b.at(pending).start < done {
		shift := done - b.at(pending).start
		for j := pending; j < b.n; j++ {
			b.at(j).start += shift
		}
	}
	s.stats.Reads++
	s.stats.ReadStallNanos += done - now
	return done
}

// Stats returns the accumulated statistics.
func (s *Sim) Stats() Stats { return s.stats }

// QueueDepth returns the number of stores pending in addr's bank at time
// now — exposed for tests.
func (s *Sim) QueueDepth(addr uint64, now float64) int {
	_, b := s.page(addr)
	b.prune(now)
	return b.n
}
