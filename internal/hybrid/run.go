package hybrid

import "sync"

// Log chunking. A chunk holds chunkEvents records (64 KB); Run keeps
// pipeChunks of them in circulation, so a System's log never holds more
// than pipeChunks·chunkEvents records, and a simulator that falls behind
// blocks the producer at its next handoff.
const (
	chunkEvents = 1 << 13
	pipeChunks  = 4
)

// chunkPool recycles the extra chunks Run puts into circulation across
// systems (each served job builds its own System).
var chunkPool = sync.Pool{New: func() any { return new([chunkEvents]uint64) }}

// pipe is the channel set connecting the producer (Run's caller) with the
// simulator goroutine. Chunks travel producer → full → simulator → free →
// producer; a nil chunk on full is a barrier the simulator acknowledges on
// idle once everything before it is applied.
type pipe struct {
	full, free chan []uint64
	idle, done chan struct{}
	panicked   any // a simulator panic, re-raised by Run
}

// Run calls fn and simulates the accesses fn logs on a second goroutine,
// overlapping the simulation with fn's own work. Results are bit-for-bit
// those of simulating inline. Run returns only after the goroutine has
// applied the whole log and exited, also when fn panics, in which case
// the panic propagates after the join. A panic on the simulator goroutine
// is re-raised by Run. Calls to Stats, Clock, AdvanceClock and Region
// inside fn are safe: they hand the pending records over and wait until
// the simulator has applied them. Run does not nest.
func (s *System) Run(fn func()) {
	if s.pipe != nil {
		panic("hybrid: nested Run")
	}
	s.sync()
	// full and free can each hold every chunk in circulation, so no send
	// on them ever blocks; only the receives wait.
	p := &pipe{
		full: make(chan []uint64, pipeChunks),
		free: make(chan []uint64, pipeChunks),
		idle: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := 1; i < pipeChunks; i++ {
		p.free <- chunkPool.Get().(*[chunkEvents]uint64)[:]
	}
	s.pipe = p
	go s.m.simulate(p)
	defer s.join(p)
	fn()
}

// simulate is the simulator goroutine: it applies chunks in order and
// recycles them until the producer closes full.
func (m *machine) simulate(p *pipe) {
	defer close(p.done)
	for c := range p.full {
		if c == nil {
			p.idle <- struct{}{}
			continue
		}
		if p.panicked == nil {
			m.applyRecover(p, c)
		}
		p.free <- c[:cap(c)]
	}
}

// applyRecover applies one chunk, latching a panic so the goroutine keeps
// draining (the producer must never block on a dead simulator).
func (m *machine) applyRecover(p *pipe, c []uint64) {
	defer func() { p.panicked = recover() }()
	m.apply(c)
}

// join ends Run: it hands over the last partial chunk, waits for the
// simulator goroutine to exit, and takes every chunk back.
func (s *System) join(p *pipe) {
	p.full <- s.buf[:s.n]
	close(p.full)
	<-p.done
	s.pipe = nil
	s.buf, s.n = <-p.free, 0
	for i := 1; i < pipeChunks; i++ {
		chunkPool.Put((*[chunkEvents]uint64)(<-p.free))
	}
	if p.panicked != nil {
		panic(p.panicked)
	}
}

// handoff passes the full log chunk on: applied inline outside Run,
// queued for the simulator goroutine inside it.
func (s *System) handoff() {
	if s.pipe == nil {
		s.m.apply(s.buf[:s.n])
		s.n = 0
		return
	}
	s.pipe.full <- s.buf[:s.n]
	s.buf, s.n = <-s.pipe.free, 0
}

// sync brings the simulation up to date with the log. Inside Run it waits
// for the simulator goroutine to go idle, which also orders the caller's
// next reads of the simulator state after the goroutine's writes.
func (s *System) sync() {
	if s.pipe == nil {
		s.handoff()
		return
	}
	if s.n > 0 {
		s.handoff()
	}
	s.pipe.full <- nil
	<-s.pipe.idle
}
