package mem

// PreciseSpace is the precise-PCM region of the hybrid system. Writes never
// corrupt; each write costs mlc.PreciseWriteNanos and one energy unit, each
// read costs mlc.ReadNanos. Accounting follows the same batched Raw/Fold
// scheme as ApproxSpace: the hot path mutates integer counters on the
// owning array, and Stats folds the registry once per call.
type PreciseSpace struct {
	fold  Fold
	addrs AddressAllocator
	sink  Sink
	words []*preciseWords
	base  Raw
}

// NewPreciseSpace returns an empty precise space.
func NewPreciseSpace() *PreciseSpace {
	return &PreciseSpace{
		fold: Fold{ReadNanos: readNanos, WriteNanos: preciseWriteNanos, EnergyPerWrite: 1},
	}
}

// SetSink attaches a trace sink receiving every access in this space,
// including accesses to arrays allocated before the attach. Pass nil to
// detach.
func (s *PreciseSpace) SetSink(sink Sink) {
	s.sink = sink
	for _, w := range s.words {
		w.bind(sink)
	}
}

// Alloc implements Space.
func (s *PreciseSpace) Alloc(n int) Words {
	w := &preciseWords{
		space: s,
		base:  s.addrs.Take(n),
		data:  make([]uint32, n),
	}
	w.bind(s.sink)
	s.words = append(s.words, w)
	return w
}

func (s *PreciseSpace) rawTotal() Raw {
	var total Raw
	for _, w := range s.words {
		total.Add(w.raw)
	}
	return total
}

// Stats implements Space.
func (s *PreciseSpace) Stats() Stats { return s.fold.Stats(s.rawTotal().Sub(s.base)) }

// ResetStats zeroes the aggregate by snapshotting the current raw totals
// as the new baseline (arrays remain usable; their subsequent accesses
// fold into the post-reset aggregate exactly once). Used between
// experiment stages.
func (s *PreciseSpace) ResetStats() { s.base = s.rawTotal() }

// Approximate implements Space.
func (s *PreciseSpace) Approximate() bool { return false }

type preciseWords struct {
	space *PreciseSpace
	sinkBinding
	base uint64
	data []uint32
	raw  Raw
}

func (w *preciseWords) Len() int { return len(w.data) }

//memlint:hotpath
func (w *preciseWords) Get(i int) uint32 {
	w.raw.Reads++
	if w.sink != nil {
		w.sink.Access(OpRead, w.base+uint64(i)*4, 4) //nolint:hotpath // traced arrays opt back into per-access sink dispatch
	}
	return w.data[i]
}

//memlint:hotpath
func (w *preciseWords) Set(i int, v uint32) {
	w.raw.Writes++
	if w.sink != nil {
		w.sink.Access(OpWrite, w.base+uint64(i)*4, 4) //nolint:hotpath // traced arrays opt back into per-access sink dispatch
	}
	w.data[i] = v
}

// GetSlice implements BulkWords. A traced array emits one range event
// when its sink takes them, and per-element Gets otherwise.
func (w *preciseWords) GetSlice(i int, dst []uint32) {
	if w.perWord() {
		for j := range dst {
			dst[j] = w.Get(i + j)
		}
		return
	}
	w.traceRange(OpRead, w.base+uint64(i)*4, len(dst))
	w.raw.Reads += len(dst)
	copy(dst, w.data[i:i+len(dst)])
}

// SetSlice implements BulkWords, tracing like GetSlice.
func (w *preciseWords) SetSlice(i int, src []uint32) {
	if w.perWord() {
		for j, v := range src {
			w.Set(i+j, v)
		}
		return
	}
	w.traceRange(OpWrite, w.base+uint64(i)*4, len(src))
	w.raw.Writes += len(src)
	copy(w.data[i:i+len(src)], src)
}

// Reorderable implements BulkWords: precise accesses are deterministic,
// so an untraced array's accesses commute with other arrays'.
func (w *preciseWords) Reorderable() bool { return w.sink == nil }

// Stats returns the accesses charged to this array, folded under the
// space's cost recipe.
func (w *preciseWords) Stats() Stats { return w.space.fold.Stats(w.raw) }

// Peek implements Peeker.
func (w *preciseWords) Peek(i int) uint32 { return w.data[i] }
