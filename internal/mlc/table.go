package mlc

import (
	"fmt"
	"math"
	"math/bits"

	"approxsort/internal/rng"
)

// Table is a calibrated fast WordModel. At construction it runs a
// Monte-Carlo campaign through the exact cell model and records, per target
// level, (a) the distribution of the digital level read back and (b) the
// distribution of P&V pulse counts. WriteWord then samples those empirical
// distributions instead of re-running the P&V loop, which is roughly an
// order of magnitude faster for multi-million-element sorting sweeps.
//
// The two distributions are sampled independently. That preserves the
// marginal error rate and the marginal latency exactly (the quantities
// every experiment in the paper reports); only the latency↔error
// correlation within a single cell write is lost, and nothing consumes it.
// TestTableMatchesExact asserts the statistical agreement.
//
// A Table is immutable after construction: WriteWord only reads the
// distributions and draws randomness from the caller-supplied source, so
// one table may be shared by any number of goroutines (see TableCache).
type Table struct {
	p Params

	// resCum[l] is the cumulative distribution over read-back levels for
	// a write targeting level l.
	resCum [][]float64
	// itersCum[l] is the cumulative distribution over pulse counts
	// (index i holds P(#P <= i+1)) for a write targeting level l.
	itersCum [][]float64
	// avgP is the mean pulse count per cell write across levels.
	avgP float64
	// errProb[l] is the probability that a write of level l reads back
	// as a different level.
	errProb []float64

	// Dense fixed-point sampler state, derived from resCum/itersCum at
	// construction. The RNG's Float64() is float64(Uint64()>>11)·2⁻⁵³
	// exactly, so with k = Uint64()>>11 the float comparison u < cum[i]
	// is equivalent to the integer comparison k < ceil(cum[i]·2⁵³) —
	// bit-for-bit, while consuming the identical stream. resThr holds
	// Levels consecutive blocks of Levels thresholds; itersThr holds
	// Levels blocks of MaxIters thresholds. The prefix tables map
	// (level, top 8 bits of k) to the first index the scan can possibly
	// select, so front-loaded distributions resolve in one compare.
	resThr   []uint64
	itersThr []uint64
	resPfx   []uint16 // Levels blocks of 256 entries
	itersPfx []uint16 // Levels blocks of 256 entries

	// bitsPerCell and levelMask cache the per-cell shift/mask state so
	// WriteWord does not re-derive it per word.
	bitsPerCell uint
	levelMask   uint32
}

// DefaultTableSamples is the per-level Monte-Carlo sample count used by
// NewTable when samples <= 0 is given. 40k samples bound the error-rate
// estimate's standard error below ~2.5e-3 per level, well under the effect
// sizes in the paper's figures.
const DefaultTableSamples = 40000

// NewTable builds a table-driven model for p using the given number of
// Monte-Carlo samples per level (DefaultTableSamples if samples <= 0) and
// a deterministic seed. It panics on invalid params.
func NewTable(p Params, samples int, seed uint64) *Table {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if samples <= 0 {
		samples = DefaultTableSamples
	}
	r := rng.New(seed)
	t := &Table{
		p:        p,
		resCum:   make([][]float64, p.Levels),
		itersCum: make([][]float64, p.Levels),
		errProb:  make([]float64, p.Levels),
	}
	totalIters := 0
	for level := 0; level < p.Levels; level++ {
		resCount := make([]int, p.Levels)
		iterCount := make([]int, p.MaxIters)
		errs := 0
		for s := 0; s < samples; s++ {
			got, iters := p.WriteReadCell(r, level)
			resCount[got]++
			if iters > p.MaxIters {
				iters = p.MaxIters
			}
			iterCount[iters-1]++
			totalIters += iters
			if got != level {
				errs++
			}
		}
		t.resCum[level] = cumulate(resCount, samples)
		t.itersCum[level] = cumulate(iterCount, samples)
		t.errProb[level] = float64(errs) / float64(samples)
	}
	t.avgP = float64(totalIters) / float64(p.Levels*samples)
	t.buildDense()
	return t
}

// buildDense derives the fixed-point threshold arrays and prefix tables
// from the float cumulative distributions.
func (t *Table) buildDense() {
	t.bitsPerCell = uint(t.p.BitsPerCell())
	t.levelMask = uint32(t.p.Levels - 1)
	t.resThr = make([]uint64, 0, t.p.Levels*t.p.Levels)
	t.itersThr = make([]uint64, 0, t.p.Levels*t.p.MaxIters)
	t.resPfx = make([]uint16, 0, t.p.Levels*256)
	t.itersPfx = make([]uint16, 0, t.p.Levels*256)
	for level := 0; level < t.p.Levels; level++ {
		rt := fixedThresholds(t.resCum[level])
		it := fixedThresholds(t.itersCum[level])
		t.resThr = append(t.resThr, rt...)
		t.itersThr = append(t.itersThr, it...)
		t.resPfx = append(t.resPfx, drawPrefix(rt)...)
		t.itersPfx = append(t.itersPfx, drawPrefix(it)...)
	}
}

// fixedThresholds lifts a float cumulative distribution onto the 53-bit
// draw lattice: thresholds[i] = ceil(cum[i]·2⁵³). cum[i]·2⁵³ is exact
// (power-of-two scaling of a float64 ≤ 1), so k < thresholds[i] holds
// for exactly the draws k whose Float64() image is < cum[i]. The final
// entry is 2⁵³ (cum ends at 1), strictly above every possible draw, so
// a threshold scan always terminates in range.
func fixedThresholds(cum []float64) []uint64 {
	thr := make([]uint64, len(cum))
	for i, c := range cum {
		thr[i] = uint64(math.Ceil(c * (1 << 53)))
	}
	return thr
}

// scanPfx flags a prefix entry whose bucket straddles a threshold
// boundary: the sampler must confirm by scanning thresholds from the
// encoded start index. Unflagged (pure) buckets resolve the draw with
// the single prefix load — no threshold is crossed inside the bucket,
// so every draw with that top byte selects the same index.
const scanPfx = 1 << 15

// drawPrefix builds the 256-entry top-bits lookup for one threshold
// array, keyed by the draw's top byte b = k>>45. A draw k with top byte
// b lies in [b<<45, (b+1)<<45); when that whole interval falls between
// two adjacent thresholds the entry holds the selected index directly,
// otherwise it holds scanPfx | firstCandidate. Distributions here are
// short and front-loaded, so almost all buckets are pure and the
// sampler's common path is one 16-bit load per draw.
func drawPrefix(thr []uint64) []uint16 {
	pfx := make([]uint16, 256)
	i := 0
	for b := 0; b < 256; b++ {
		lo := uint64(b) << 45
		for thr[i] <= lo {
			i++
		}
		if lo+1<<45 <= thr[i] {
			pfx[b] = uint16(i)
		} else {
			pfx[b] = scanPfx | uint16(i)
		}
	}
	return pfx
}

func cumulate(counts []int, total int) []float64 {
	cum := make([]float64, len(counts))
	running := 0
	for i, c := range counts {
		running += c
		cum[i] = float64(running) / float64(total)
	}
	// Guard against floating point drift: force the final entry to 1 so
	// inverse-CDF sampling can never run off the end.
	cum[len(cum)-1] = 1
	return cum
}

// sampleCum draws an index from a cumulative distribution.
func sampleCum(r *rng.Source, cum []float64) int {
	u := r.Float64()
	// Distributions here are short (4 levels, few-tens iterations) and
	// front-loaded, so a linear scan beats binary search in practice.
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return len(cum) - 1
}

// WriteWord implements WordModel by sampling the per-level empirical
// distributions for each of the word's cells. It runs on the dense
// fixed-point sampler: two Uint64 draws per cell (read-back level, then
// pulse count — the same stream order and count as inverse-CDF sampling
// of resCum/itersCum), each resolved by a prefix lookup plus a short
// threshold scan. TestTableDenseMatchesFloat pins bit-equivalence
// against the float path.
//
//memlint:hotpath
func (t *Table) WriteWord(r *rng.Source, w uint32) (uint32, int) {
	stored, iters, s := t.word(r.Stream, w)
	r.Stream = s
	return stored, iters
}

// WriteWords writes each src word through the model, storing the
// read-back values in dst[i] and returning the total pulse count across
// the batch. It consumes the RNG stream exactly as len(src) sequential
// WriteWord calls would — bulk callers (mem.SetSlice) stay bit-identical
// to per-word loops — and keeps the generator state out of memory for
// the whole batch.
//
//memlint:hotpath
func (t *Table) WriteWords(r *rng.Source, dst, src []uint32) int {
	if len(dst) < len(src) {
		panic("mlc: WriteWords dst shorter than src")
	}
	s := r.Stream
	total, iters := 0, 0
	for i, w := range src {
		dst[i], iters, s = t.word(s, w)
		total += iters
	}
	r.Stream = s
	return total
}

// word is the sampler kernel behind WriteWord and WriteWords. The
// generator state travels by value (rng.Stream) through the word's
// 2·cells draws and back to the caller, so its four words can stay in
// registers for the whole word; held in a Source they are loaded and
// stored through memory on every draw. To leave registers for the
// state, table fields are read per use rather than cached in locals,
// and x packs the word being written, the stored result and the loop
// bound into one uint64: at step c, cell c of w sits in x's low bits,
// is replaced by its read-back level and rotates to the top. After 32
// bits of rotation the top half is the stored word, and the sentinel
// planted at bit 32 has reached bit 0 with nothing else below bit 32.
//
//memlint:hotpath
func (t *Table) word(s rng.Stream, w uint32) (uint32, int, rng.Stream) {
	x := uint64(w) | 1<<32
	total := 0
	for {
		level := int(x & uint64(t.levelMask))
		var k uint64
		k, s = s.Next()
		k >>= 11
		i := int(t.resPfx[level<<8|int(k>>45)])
		if i >= scanPfx {
			i &= scanPfx - 1
			for base := level * t.p.Levels; k >= t.resThr[base+i]; {
				i++
			}
		}
		k, s = s.Next()
		k >>= 11
		j := int(t.itersPfx[level<<8|int(k>>45)])
		if j >= scanPfx {
			j &= scanPfx - 1
			for base := level * t.p.MaxIters; k >= t.itersThr[base+j]; {
				j++
			}
		}
		total += j + 1
		x = bits.RotateLeft64(x^uint64(level^i), -int(t.bitsPerCell))
		if uint32(x) == 1 {
			return uint32(x >> 32), total, s
		}
	}
}

// CellsPerWord implements WordModel.
func (t *Table) CellsPerWord() int { return t.p.CellsPerWord() }

// Params implements WordModel.
func (t *Table) Params() Params { return t.p }

// AvgP returns the calibrated mean P&V pulse count per cell write.
func (t *Table) AvgP() float64 { return t.avgP }

// AvgWriteNanos returns the calibrated mean word-write latency: AvgP
// scaled so the reference precise point (ReferenceAvgP pulses per cell)
// costs PreciseWriteNanos. It is the p(t)·(precise latency) device clock
// the serving layer charges for an approximate MLC region.
func (t *Table) AvgWriteNanos() float64 {
	return t.avgP / ReferenceAvgP * PreciseWriteNanos
}

// CellErrorProb returns the probability that a cell write targeting level
// reads back as a different level.
func (t *Table) CellErrorProb(level int) float64 {
	if level < 0 || level >= t.p.Levels {
		panic(fmt.Sprintf("mlc: level %d out of range [0,%d)", level, t.p.Levels))
	}
	return t.errProb[level]
}

// MeanCellErrorProb returns the cell error probability averaged over
// uniformly distributed target levels.
func (t *Table) MeanCellErrorProb() float64 {
	sum := 0.0
	for _, e := range t.errProb {
		sum += e
	}
	return sum / float64(len(t.errProb))
}

// WordErrorProb returns the probability that at least one cell of a
// uniformly random word is corrupted, assuming independent cells (each of
// the word's cells targets a uniformly distributed level).
func (t *Table) WordErrorProb() float64 {
	okCell := 1 - t.MeanCellErrorProb()
	p := 1.0
	for i := 0; i < t.CellsPerWord(); i++ {
		p *= okCell
	}
	return 1 - p
}

// PRatio returns p(t) as defined in Section 2.2: the ratio of the average
// pulse count under this configuration to the average pulse count on
// precise memory (same parameters, T = PreciseT).
func (t *Table) PRatio(samples int, seed uint64) float64 {
	precise := t.p
	precise.T = PreciseT
	ref := CachedTable(precise, samples, seed)
	return t.avgP / ref.avgP
}
