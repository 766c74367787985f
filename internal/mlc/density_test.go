package mlc

import (
	"reflect"
	"testing"

	"approxsort/internal/rng"
)

func TestWithLevelsValidation(t *testing.T) {
	if err := WithLevels(2, 0.2).Validate(); err != nil {
		t.Errorf("SLC with wide T rejected: %v", err)
	}
	if err := WithLevels(16, 0.03).Validate(); err != nil {
		t.Errorf("16-level cell rejected: %v", err)
	}
	// 8-level cells carry 3 bits, which do not pack into 32-bit words.
	if err := WithLevels(8, 0.05).Validate(); err == nil {
		t.Error("8-level cell accepted despite 3-bit packing")
	}
}

func TestGuardFraction(t *testing.T) {
	p := GuardFraction(4, 1)
	if p.T != 0.125 {
		t.Errorf("full-band 4-level T = %v, want 0.125", p.T)
	}
	p = GuardFraction(16, 0.5)
	if want := 0.5 / 32; p.T != want {
		t.Errorf("half-band 16-level T = %v, want %v", p.T, want)
	}
}

func TestSLCRoundTrip(t *testing.T) {
	// Single-level cells with generous guard bands are extremely robust.
	p := GuardFraction(2, 0.2)
	model := NewExact(p)
	if model.CellsPerWord() != 32 {
		t.Fatalf("SLC CellsPerWord = %d, want 32", model.CellsPerWord())
	}
	r := rng.New(1)
	for i := 0; i < 500; i++ {
		w := r.Uint32()
		stored, iters := model.WriteWord(r, w)
		if stored != w {
			t.Fatalf("SLC corrupted word %08x -> %08x", w, stored)
		}
		if iters < 32 {
			t.Fatalf("SLC word write used %d pulses", iters)
		}
	}
}

// TestDensityCostsPulses is the Sampson density trade-off: at the same
// guard fraction, denser cells (tighter absolute targets) need more P&V
// pulses per cell and suffer more read errors.
func TestDensityCostsPulses(t *testing.T) {
	const f = 0.4
	slc := MonteCarlo(GuardFraction(2, f), 4000, 2)
	mlc4 := MonteCarlo(GuardFraction(4, f), 4000, 3)
	mlc16 := MonteCarlo(GuardFraction(16, f), 4000, 4)

	if !(slc.AvgP < mlc4.AvgP && mlc4.AvgP < mlc16.AvgP) {
		t.Errorf("avg #P not increasing with density: %v / %v / %v",
			slc.AvgP, mlc4.AvgP, mlc16.AvgP)
	}
	if mlc16.CellErrorRate <= mlc4.CellErrorRate {
		t.Errorf("16-level error rate %v not above 4-level %v",
			mlc16.CellErrorRate, mlc4.CellErrorRate)
	}
	// Density pays off in cells: 16-level words need half the cells of
	// 4-level ones.
	if c4, c16 := Approximate(0.05).CellsPerWord(), WithLevels(16, 0.01).CellsPerWord(); c16 != c4/2 {
		t.Errorf("cells per word: 4-level %d, 16-level %d", c4, c16)
	}
}

// TestAnalogMarginalErrorMatchesMaterialized validates the DESIGN.md §3
// "error timing" decision: the first read of an analog cell has the same
// marginal error distribution as the write-time-materialized engines.
func TestAnalogMarginalErrorMatchesMaterialized(t *testing.T) {
	const T = 0.1
	const n = 4000
	a := NewAnalogArray(Approximate(T), n, 5)
	r := rng.New(6)
	want := make([]uint32, n)
	for i := range want {
		want[i] = r.Uint32()
		a.Set(i, want[i])
	}
	errs := 0
	for i := range want {
		if a.Get(i) != want[i] {
			errs++
		}
	}
	analogRate := float64(errs) / n

	exact := MonteCarlo(Approximate(T), n, 7)
	if d := analogRate - exact.WordErrorRate; d > 0.05 || d < -0.05 {
		t.Errorf("analog first-read word error %v vs materialized %v", analogRate, exact.WordErrorRate)
	}
}

func TestDensitySweepWorkerInvariant(t *testing.T) {
	serial, parallel := DensitySweep(300, 5, 1), DensitySweep(300, 5, 4)
	if len(serial) != 12 || serial[0].Levels != 2 || serial[11].Levels != 16 {
		t.Fatalf("density grid: %+v", serial)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("density points depend on the worker count")
	}
}
