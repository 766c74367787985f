// Package hybrid wires the full memory system of the paper's Figure 3
// together: the CPU-side write-through cache hierarchy (internal/cache) in
// front of one PCM device (internal/pcm) whose physical address space is
// split into a precise region and an approximate region — same silicon,
// different guard bands, so they share ranks, banks and queues.
//
// A System is driven as a mem.Sink: attach Region sinks to the
// instrumented spaces (mem.PreciseSpace.SetSink / mem.ApproxSpace.SetSink)
// and every Get/Set flows through caches and bank queues, accumulating the
// CPU-visible "total memory access time" the paper's abstract reports.
// The region an address falls in determines how the device treats it.
// System.Run overlaps that simulation with the code producing the
// accesses (run.go).
package hybrid

import (
	"fmt"

	"approxsort/internal/cache"
	"approxsort/internal/mem"
	"approxsort/internal/pcm"
)

// System is the hybrid memory system: caches plus a region-split PCM
// device sharing one CPU clock.
//
// Regions do not simulate an access when it happens. They append a
// compact record to the system's event log, in program order, and one
// apply loop simulates the log (see DESIGN.md §13.5). Outside Run a full
// log chunk is applied inline; inside Run chunks are applied on a second
// goroutine while the caller keeps computing. Stats, Clock, AdvanceClock
// and Region first bring the simulation up to date with the log, so every
// observable result is the one per-access simulation would give. A
// System is not safe for concurrent use: Run's goroutine is internal.
type System struct {
	// The event log: buf[:n] holds the records not yet handed to the
	// simulator. pipe is non-nil while Run is in progress.
	buf  []uint64
	n    int
	pipe *pipe
	// m is the simulator state, a separate allocation so that the
	// producer's log writes and Run's simulator goroutine never share a
	// cache line.
	m *machine
}

// machine is the simulator state the apply loop owns.
type machine struct {
	hier       *cache.Hierarchy
	dev        *pcm.Sim
	writeNanos []float64 // per-store service time, by region index

	clock           float64
	reads, writes   uint64
	readHits        [4]uint64 // by level; [0] counts memory reads
	cacheReadNanos  float64
	memReadNanos    float64
	writeIssueNanos float64
}

// New returns a system with the Table 1 cache hierarchy and PCM device.
func New() *System { return NewWithConfig(pcm.DefaultConfig()) }

// NewWithConfig returns a system with a custom PCM configuration.
func NewWithConfig(cfg pcm.Config) *System {
	return &System{
		buf: make([]uint64, chunkEvents),
		m:   &machine{hier: cache.NewHierarchy(), dev: pcm.New(cfg)},
	}
}

// regionBytes is the size reserved for each region (4 GB of the 8 GB
// device in the default split of Table 1).
const regionBytes = 4 << 30

// Region is a mem.Sink and mem.RangeSink that maps a space's zero-based
// addresses into the system's physical address space and tags its writes
// with a service time.
type Region struct {
	sys  *System
	base uint64
	tag  uint64 // the region's index, placed in the event's region field
	name string
}

// Region reserves the next address range and returns its sink. writeNanos
// is the per-store device service time for the region — e.g.
// mlc.PreciseWriteNanos for the precise region, or the approximate
// region's p(t)-scaled latency.
func (s *System) Region(name string, writeNanos float64) *Region {
	if writeNanos <= 0 {
		panic(fmt.Sprintf("hybrid: region %q needs positive write latency", name))
	}
	if len(s.m.writeNanos) == maxRegions {
		panic(fmt.Sprintf("hybrid: region %q exceeds the %d-region limit", name, maxRegions))
	}
	// The simulator reads the region table; inside Run it must be idle
	// while the table grows.
	s.sync()
	idx := uint64(len(s.m.writeNanos))
	s.m.writeNanos = append(s.m.writeNanos, writeNanos)
	return &Region{sys: s, base: idx * regionBytes, tag: idx << evRegionShift, name: name}
}

// Name returns the region's label.
func (r *Region) Name() string { return r.name }

// Base returns the region's physical base address.
func (r *Region) Base() uint64 { return r.base }

// An event is one log record packed into a uint64: the op in bit 63 (1 =
// write), the word count minus one in bits 48–62, the region index in
// bits 40–47 and the byte offset within the region in bits 0–39. A
// record of k words stands for k consecutive word accesses from its
// offset, 4 bytes apart.
const (
	evRegionShift = 40
	evCountShift  = 48
	evWrite       = 1 << 63
	evOffsetMask  = 1<<evRegionShift - 1
	maxRegions    = 1 << (evCountShift - evRegionShift)
	maxRangeWords = 1 << (63 - evCountShift)
)

// event packs one record of words accesses from addr.
func (r *Region) event(op mem.Op, addr uint64, words int) uint64 {
	if addr > evOffsetMask {
		panic("hybrid: address offset exceeds the 40-bit event offset field")
	}
	// mem.OpRead is 0 and mem.OpWrite is 1: the op is the write bit.
	return uint64(op)<<63 | uint64(words-1)<<evCountShift | r.tag | addr
}

// Access implements mem.Sink: it logs one word access.
//
//memlint:hotpath
func (r *Region) Access(op mem.Op, addr uint64, size int) {
	r.sys.push(r.event(op, addr, 1))
}

// AccessRange implements mem.RangeSink: it logs words consecutive word
// accesses from addr as one record per maxRangeWords words.
//
//memlint:hotpath
func (r *Region) AccessRange(op mem.Op, addr uint64, words int) {
	for words > 0 {
		k := min(words, maxRangeWords)
		r.sys.push(r.event(op, addr, k))
		addr += uint64(k) * 4
		words -= k
	}
}

// push appends one record to the log, handing the chunk over when full.
//
//memlint:hotpath
func (s *System) push(ev uint64) {
	s.buf[s.n] = ev
	s.n++
	if s.n == len(s.buf) {
		s.handoff()
	}
}

// apply simulates log records in order.
func (m *machine) apply(evs []uint64) {
	writeNanos := m.writeNanos
	for _, ev := range evs {
		region := ev >> evRegionShift & (maxRegions - 1)
		phys := region*regionBytes + ev&evOffsetMask
		words := ev>>evCountShift&(maxRangeWords-1) + 1
		if ev&evWrite == 0 {
			m.readRange(phys, words)
		} else {
			m.writeRange(phys, words, writeNanos[region])
		}
	}
}

// readRange simulates words consecutive loads from phys. Only the first
// load of each cache line looks the line up: it leaves the line as L1's
// MRU way, so each later load of that line in the range is an L1 hit that
// changes nothing but the counters and the clock, charged word by word in
// the per-access order.
func (m *machine) readRange(phys, words uint64) {
	for words > 0 {
		m.read(phys)
		inLine := (cache.LineBytes - phys%cache.LineBytes + 3) / 4
		rest := min(words, inLine) - 1
		m.hier.ReadAgain(rest)
		m.reads += rest
		m.readHits[1] += rest
		for j := uint64(0); j < rest; j++ {
			m.cacheReadNanos += cache.L1Nanos
			m.clock += cache.L1Nanos
		}
		phys += 4 * (rest + 1)
		words -= rest + 1
	}
}

// read simulates one load.
func (m *machine) read(phys uint64) {
	m.reads++
	level, nanos := m.hier.Read(phys)
	m.readHits[level]++
	m.cacheReadNanos += nanos
	m.clock += nanos
	if level == 0 {
		done := m.dev.Read(phys, m.clock)
		m.memReadNanos += done - m.clock
		m.clock = done
	}
}

// writeRange simulates words consecutive stores from phys. Only the first
// store to each cache line touches the hierarchy: the touch leaves the
// line MRU or absent at every level, where a repeat touch changes
// nothing. Every store still goes to the device.
func (m *machine) writeRange(phys, words uint64, writeNanos float64) {
	for j := uint64(0); j < words; j++ {
		if j == 0 || phys%cache.LineBytes < 4 {
			m.hier.Write(phys)
		}
		m.writes++
		resume := m.dev.Write(phys, m.clock, writeNanos)
		m.writeIssueNanos += resume - m.clock
		m.clock = resume
		phys += 4
	}
}

// Stats summarizes the system-level timing.
type Stats struct {
	// Clock is the CPU-visible elapsed time in nanoseconds: the
	// paper's "total memory access time".
	Clock float64
	// Reads and Writes count accesses entering the hierarchy.
	Reads, Writes uint64
	// L1/L2/L3 hits and memory reads.
	L1Hits, L2Hits, L3Hits, MemReads uint64
	// CacheReadNanos is time spent traversing cache levels.
	CacheReadNanos float64
	// MemReadNanos is time spent blocked on PCM reads.
	MemReadNanos float64
	// WriteStallNanos is time spent blocked on full write queues.
	WriteStallNanos float64
	// Device carries the raw PCM statistics.
	Device pcm.Stats
}

// Check verifies the snapshot's internal consistency — the system-level
// half of the verification subsystem (internal/verify audits the
// space-level accounting; this audits the cache + device pipeline):
// every read resolved at exactly one level, the device never serviced
// more requests than entered the hierarchy, every timing component is
// non-negative, and the CPU clock covers their sum (idle time injected
// via AdvanceClock can only add to it).
func (s Stats) Check() error {
	if got := s.L1Hits + s.L2Hits + s.L3Hits + s.MemReads; got != s.Reads {
		return fmt.Errorf("hybrid: read hits sum to %d, want %d reads", got, s.Reads)
	}
	if s.Device.Reads != s.MemReads {
		return fmt.Errorf("hybrid: device serviced %d reads, hierarchy missed %d",
			s.Device.Reads, s.MemReads)
	}
	if s.Device.Writes != s.Writes {
		return fmt.Errorf("hybrid: device serviced %d writes, hierarchy issued %d",
			s.Device.Writes, s.Writes)
	}
	for name, v := range map[string]float64{
		"Clock": s.Clock, "CacheReadNanos": s.CacheReadNanos,
		"MemReadNanos": s.MemReadNanos, "WriteStallNanos": s.WriteStallNanos,
	} {
		if v < 0 {
			return fmt.Errorf("hybrid: %s = %g is negative", name, v)
		}
	}
	spent := s.CacheReadNanos + s.MemReadNanos + s.WriteStallNanos
	if s.Clock < spent*(1-1e-9) {
		return fmt.Errorf("hybrid: clock %g ns below accounted time %g ns", s.Clock, spent)
	}
	return nil
}

// Stats returns the current totals.
func (s *System) Stats() Stats {
	s.sync()
	m := s.m
	return Stats{
		Clock:           m.clock,
		Reads:           m.reads,
		Writes:          m.writes,
		L1Hits:          m.readHits[1],
		L2Hits:          m.readHits[2],
		L3Hits:          m.readHits[3],
		MemReads:        m.readHits[0],
		CacheReadNanos:  m.cacheReadNanos,
		MemReadNanos:    m.memReadNanos,
		WriteStallNanos: m.writeIssueNanos,
		Device:          m.dev.Stats(),
	}
}

// Clock returns the CPU-visible time in nanoseconds.
func (s *System) Clock() float64 {
	s.sync()
	return s.m.clock
}

// AdvanceClock adds idle time (e.g. CPU compute between memory phases);
// it lets queued writes drain before the next burst.
func (s *System) AdvanceClock(nanos float64) {
	if nanos < 0 {
		panic("hybrid: cannot rewind the clock")
	}
	s.sync()
	s.m.clock += nanos
}
