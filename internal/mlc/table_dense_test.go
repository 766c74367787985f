package mlc

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"approxsort/internal/rng"
)

// writeWordFloat is the retained float-path reference sampler: inverse-CDF
// sampling of resCum/itersCum through sampleCum, exactly as WriteWord ran
// before the dense fixed-point tables. It consumes two Float64-equivalent
// draws per cell in res-then-iters order.
func writeWordFloat(t *Table, r *rng.Source, w uint32) (uint32, int) {
	bits := uint(t.p.BitsPerCell())
	mask := uint32(t.p.Levels - 1)
	var stored uint32
	total := 0
	for shift := uint(0); shift < 32; shift += bits {
		level := int(w >> shift & mask)
		stored |= uint32(sampleCum(r, t.resCum[level])) << shift
		total += sampleCum(r, t.itersCum[level]) + 1
	}
	return stored, total
}

// TestTableDenseMatchesFloat pins the dense sampler's bit-equivalence:
// for identical RNG streams, WriteWord must return the same stored word
// and pulse count as the float inverse-CDF path for every draw, and must
// leave the stream at the same position. The threshold lift is exact —
// Float64() is float64(Uint64()>>11)·2⁻⁵³, so with k = Uint64()>>11 the
// comparison u < cum[i] is equivalent to k < ceil(cum[i]·2⁵³) — and this
// test guards that equivalence across operating points, level counts,
// and mixed word values.
func TestTableDenseMatchesFloat(t *testing.T) {
	cases := []Params{
		Approximate(0.01),
		Approximate(0.055),
		Approximate(0.1),
		Approximate(MaxT),
		WithLevels(2, 0.2),
		WithLevels(16, 0.02),
	}
	for _, p := range cases {
		tab := NewTable(p, 4000, CalibrationSeed)
		rDense := rng.New(0xd15ea5e)
		rFloat := rng.New(0xd15ea5e)
		for i := 0; i < 20000; i++ {
			w := uint32(i) * 2654435761
			gotV, gotIters := tab.WriteWord(rDense, w)
			wantV, wantIters := writeWordFloat(tab, rFloat, w)
			if gotV != wantV || gotIters != wantIters {
				t.Fatalf("L=%d T=%g word %#x: dense (%#x, %d) != float (%#x, %d)",
					p.Levels, p.T, w, gotV, gotIters, wantV, wantIters)
			}
		}
		if !reflect.DeepEqual(rDense, rFloat) {
			t.Fatalf("L=%d T=%g: RNG streams diverged after 20k words", p.Levels, p.T)
		}
	}
}

// writeWordPointer is the retained pointer-threaded dense sampler: the
// loop WriteWord ran before the kernel took the generator state by value.
// It draws through a copied *rng.Source, whose state Go keeps in memory,
// and is the oracle TestKernelMatchesPointerLoop holds the kernel to.
func writeWordPointer(t *Table, r *rng.Source, w uint32) (uint32, int) {
	local := *r
	var stored uint32
	total := 0
	levels := t.p.Levels
	maxIters := t.p.MaxIters
	resThr, itersThr := t.resThr, t.itersThr
	resPfx, itersPfx := t.resPfx, t.itersPfx
	bits, mask := t.bitsPerCell, t.levelMask
	for shift := uint(0); shift < 32; shift += bits {
		level := int(w >> shift & mask)
		k := local.Uint64() >> 11
		i := int(resPfx[level<<8|int(k>>45)])
		if i >= scanPfx {
			i &= scanPfx - 1
			for base := level * levels; k >= resThr[base+i]; {
				i++
			}
		}
		k = local.Uint64() >> 11
		j := int(itersPfx[level<<8|int(k>>45)])
		if j >= scanPfx {
			j &= scanPfx - 1
			for base := level * maxIters; k >= itersThr[base+j]; {
				j++
			}
		}
		stored |= uint32(i) << shift
		total += j + 1
	}
	*r = local
	return stored, total
}

// TestKernelMatchesPointerLoop property-tests the by-value kernel behind
// WriteWord and WriteWords against writeWordPointer: identical (stored,
// iters) for every word and an identical generator state afterwards, on
// every table shape the repository builds (4-level at several T
// including PreciseT, 2- and 16-level cells, guard-fraction geometries)
// plus 256-level cells, the widest that packs into a word. (8-level cells
// are not a valid shape: 3 bits do not divide 32.) The words are random
// plus every single-level word, whose cells all target one level.
func TestKernelMatchesPointerLoop(t *testing.T) {
	cases := []Params{
		Approximate(PreciseT),
		Approximate(0.04),
		Approximate(0.055),
		Approximate(0.08),
		Approximate(MaxT),
		WithLevels(2, 0.2),
		WithLevels(16, 0.02),
		GuardFraction(2, 0.4),
		GuardFraction(4, 0.6),
		GuardFraction(16, 0.8),
		GuardFraction(256, 0.5),
	}
	for _, p := range cases {
		tab := NewTable(p, 2000, CalibrationSeed)
		words := rng.New(uint64(p.Levels) ^ math.Float64bits(p.T))
		src := make([]uint32, 0, 4096+p.Levels)
		for level := 0; level < p.Levels; level++ {
			w := uint32(0)
			for shift := 0; shift < 32; shift += p.BitsPerCell() {
				w |= uint32(level) << shift
			}
			src = append(src, w)
		}
		for len(src) < cap(src) {
			src = append(src, words.Uint32())
		}

		rKernel, rPointer := rng.New(0xd15ea5e), rng.New(0xd15ea5e)
		want := make([]uint32, len(src))
		wantIters := 0
		for i, w := range src {
			gotV, gotIters := tab.WriteWord(rKernel, w)
			var iters int
			want[i], iters = writeWordPointer(tab, rPointer, w)
			wantIters += iters
			if gotV != want[i] || gotIters != iters {
				t.Fatalf("L=%d T=%g word %#x: WriteWord (%#x, %d) != pointer loop (%#x, %d)",
					p.Levels, p.T, w, gotV, gotIters, want[i], iters)
			}
			if *rKernel != *rPointer {
				t.Fatalf("L=%d T=%g word %#x: RNG state diverged", p.Levels, p.T, w)
			}
		}

		// WriteWords over ragged batches consumes the stream exactly like
		// the per-word loop above.
		rBatch := rng.New(0xd15ea5e)
		got := make([]uint32, len(src))
		gotIters := 0
		for lo, size := 0, 1; lo < len(src); lo, size = lo+size, size*3%97+1 {
			hi := min(lo+size, len(src))
			gotIters += tab.WriteWords(rBatch, got[lo:hi], src[lo:hi])
		}
		if !slices.Equal(got, want) || gotIters != wantIters {
			t.Fatalf("L=%d T=%g: WriteWords (%d iters) diverged from the pointer loop (%d iters)",
				p.Levels, p.T, gotIters, wantIters)
		}
		if *rBatch != *rPointer {
			t.Fatalf("L=%d T=%g: WriteWords left a different RNG state", p.Levels, p.T)
		}
	}
}
