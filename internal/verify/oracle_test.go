package verify

import (
	"slices"
	"sort"
	"testing"

	"approxsort/internal/dataset"
	"approxsort/internal/rng"
	"approxsort/internal/sortedness"
)

// checkOutputMap is the retained two-oracle form of checkOutput: the
// permutation verdict comes from the map-based multiset comparison
// (sortedness.SameMultiset) and the differential oracle from a separate
// sort.Slice reference. TestCheckOutputMatchesMapOracle holds the
// one-reference checkOutput to its verdicts.
func checkOutputMap(rep *Report, input, keys []uint32) {
	rep.check(sortedness.IsSorted(keys), "output-unsorted", "output keys are not non-decreasing")
	rep.check(sortedness.SameMultiset(input, keys), "not-permutation",
		"output keys are not a permutation of the input")
	ref := append([]uint32(nil), input...)
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	if d := DiffKeys(ref, keys); d != nil {
		rep.check(false, "oracle-diff", "%s", d)
	} else {
		rep.check(true, "oracle-diff", "")
	}
}

// TestCheckOutputMatchesMapOracle compares checkOutput's verdicts with
// checkOutputMap's on random inputs (uniform and duplicate-heavy) for a
// correct output and four kinds of wrong one.
func TestCheckOutputMatchesMapOracle(t *testing.T) {
	// step returns a position i >= 1 of the sorted keys with
	// sorted[i-1] != sorted[i], or 0 if every key is equal.
	step := func(sorted []uint32, r *rng.Source) int {
		for tries := 0; tries < 100; tries++ {
			if i := 1 + r.Intn(len(sorted)-1); sorted[i-1] != sorted[i] {
				return i
			}
		}
		return 0
	}
	r := rng.New(5)
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(3000)
		input := dataset.Uniform(n, uint64(trial))
		if trial%2 == 1 {
			for i := range input {
				input[i] %= uint32(1 + r.Intn(8)) // few distinct keys, long runs of equal keys
			}
		}
		ref := ReferenceSort(input)

		type output struct {
			name string
			keys []uint32
		}
		perm := slices.Clone(input)
		r.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		outputs := []output{
			{"correct", ref},
			{"unsorted permutation", perm},
			{"sorted, one key missing", slices.Delete(slices.Clone(ref), n/2, n/2+1)},
		}
		if i := step(ref, r); i > 0 {
			dup := slices.Clone(ref)
			dup[i] = dup[i-1]
			swapped := slices.Clone(ref)
			swapped[i-1], swapped[i] = swapped[i], swapped[i-1]
			outputs = append(outputs,
				output{"sorted, one key duplicated", dup},
				output{"adjacent keys swapped", swapped})
		}

		for _, o := range outputs {
			got, want := &Report{}, &Report{}
			checkOutput(got, input, o.keys)
			checkOutputMap(want, input, o.keys)
			if got.Checked != want.Checked || !slices.Equal(codes(got), codes(want)) {
				t.Fatalf("trial %d (n=%d) %s: checkOutput flags %v over %d checks, map oracle %v over %d",
					trial, n, o.name, codes(got), got.Checked, codes(want), want.Checked)
			}
			if wantOK := slices.Equal(o.keys, ref); got.OK() != wantOK {
				t.Fatalf("trial %d (n=%d) %s: OK = %v, want %v", trial, n, o.name, got.OK(), wantOK)
			}
		}
	}
}

func codes(rep *Report) []string {
	var out []string
	for _, v := range rep.Violations {
		out = append(out, v.Code)
	}
	return out
}
