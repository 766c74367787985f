package verify

import (
	"strings"
	"testing"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/sorts"
	"approxsort/internal/spintronic"
)

// hasCode reports whether the report contains a violation with the code.
func hasCode(rep *Report, code string) bool {
	for _, v := range rep.Violations {
		if v.Code == code {
			return true
		}
	}
	return false
}

func runAndCheck(t *testing.T, keys []uint32, cfg core.Config) (*Report, core.Result) {
	t.Helper()
	res, err := core.Run(keys, cfg)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	return Check(keys, res), res
}

func TestCheckPassesCleanRuns(t *testing.T) {
	keys := dataset.Uniform(3000, 7)
	for _, alg := range sorts.Standard(4, 6) {
		for _, tv := range []float64{0.03, 0.055, 0.1} {
			cfg := core.Config{Algorithm: alg, T: tv, Seed: 11, MeasureSortedness: true}
			rep, _ := runAndCheck(t, keys, cfg)
			if err := rep.Err(); err != nil {
				t.Errorf("%s T=%g: %v", alg.Name(), tv, err)
			}
			if rep.Checked == 0 {
				t.Errorf("%s T=%g: no checks evaluated", alg.Name(), tv)
			}
		}
	}
}

func TestCheckPassesExactLIS(t *testing.T) {
	keys := dataset.Uniform(2000, 3)
	cfg := core.Config{Algorithm: sorts.MSD{Bits: 6}, T: 0.055, Seed: 5,
		ExactLIS: true, MeasureSortedness: true}
	rep, res := runAndCheck(t, keys, cfg)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	// The ablation's remainder is exact, so it must equal the measured
	// post-approx Rem — a stronger relation than the ≤ the checker uses.
	if res.Report.RemTilde != res.Report.PostApproxRem {
		t.Fatalf("exact-LIS Rem %d != measured Rem %d",
			res.Report.RemTilde, res.Report.PostApproxRem)
	}
}

func TestCheckPassesSpintronicSpace(t *testing.T) {
	keys := dataset.Uniform(1500, 9)
	cfg := spintronic.Presets()[0]
	rep, _ := runAndCheck(t, keys, core.Config{
		Algorithm: sorts.Quicksort{},
		NewSpace:  func(s uint64) core.Space { return spintronic.NewSpace(cfg, s) },
		Seed:      13,
	})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckPassesSkewedInputs(t *testing.T) {
	for name, keys := range map[string][]uint32{
		"sorted":      dataset.Sorted(1000),
		"reverse":     dataset.Reverse(1000),
		"fewdistinct": dataset.FewDistinct(1000, 4, 2),
		"tiny":        {42},
		"pair":        {2, 1},
	} {
		rep, _ := runAndCheck(t, keys,
			core.Config{Algorithm: sorts.LSD{Bits: 4}, T: 0.055, Seed: 21})
		if err := rep.Err(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCheckFiresOnTamperedOutput(t *testing.T) {
	keys := dataset.Uniform(500, 17)
	res, err := core.Run(keys, core.Config{Algorithm: sorts.Quicksort{}, T: 0.055, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("swapped keys", func(t *testing.T) {
		bad := res
		bad.Keys = append([]uint32(nil), res.Keys...)
		bad.Keys[10], bad.Keys[400] = bad.Keys[400], bad.Keys[10]
		rep := Check(keys, bad)
		for _, code := range []string{"output-unsorted", "oracle-diff", "sorted-flag"} {
			if !hasCode(rep, code) {
				t.Errorf("missing violation %q in %v", code, rep.Violations)
			}
		}
	})

	t.Run("value corrupted", func(t *testing.T) {
		bad := res
		bad.Keys = append([]uint32(nil), res.Keys...)
		bad.Keys[250]++ // may stay sorted, but breaks the multiset
		rep := Check(keys, bad)
		if !hasCode(rep, "not-permutation") && !hasCode(rep, "oracle-diff") {
			t.Errorf("corrupted value not caught: %v", rep.Violations)
		}
	})

	t.Run("sorted but not a permutation", func(t *testing.T) {
		bad := res
		bad.Keys = append([]uint32(nil), res.Keys...)
		i := 250
		for bad.Keys[i-1] == bad.Keys[i] {
			i++
		}
		bad.Keys[i] = bad.Keys[i-1] // still sorted; one key duplicated, one lost
		rep := Check(keys, bad)
		for _, code := range []string{"not-permutation", "oracle-diff"} {
			if !hasCode(rep, code) {
				t.Errorf("missing violation %q in %v", code, rep.Violations)
			}
		}
		if hasCode(rep, "output-unsorted") {
			t.Errorf("sorted output flagged unsorted: %v", rep.Violations)
		}
	})

	t.Run("duplicated id", func(t *testing.T) {
		bad := res
		bad.IDs = append([]uint32(nil), res.IDs...)
		bad.IDs[3] = bad.IDs[4]
		rep := Check(keys, bad)
		if !hasCode(rep, "id-not-permutation") {
			t.Errorf("duplicate ID not caught: %v", rep.Violations)
		}
	})

	t.Run("rem overcount", func(t *testing.T) {
		badReport := *res.Report
		badReport.RemTilde++ // breaks the find/merge write identities
		bad := core.Result{Report: &badReport, Keys: res.Keys, IDs: res.IDs}
		rep := Check(keys, bad)
		if !hasCode(rep, "find-writes") || !hasCode(rep, "merge-writes") {
			t.Errorf("Rem~ accounting drift not caught: %v", rep.Violations)
		}
	})

	t.Run("approx traffic in refine", func(t *testing.T) {
		badReport := *res.Report
		badReport.RefineMerge.Approx.Writes = 7
		bad := core.Result{Report: &badReport, Keys: res.Keys, IDs: res.IDs}
		rep := Check(keys, bad)
		if !hasCode(rep, "refine-touches-approx") {
			t.Errorf("approx traffic in refine not caught: %v", rep.Violations)
		}
	})

	t.Run("energy drift", func(t *testing.T) {
		badReport := *res.Report
		badReport.RefineMerge.Precise.WriteEnergy *= 1.5
		bad := core.Result{Report: &badReport, Keys: res.Keys, IDs: res.IDs}
		rep := Check(keys, bad)
		if !hasCode(rep, "precise-accounting") {
			t.Errorf("energy drift not caught: %v", rep.Violations)
		}
	})
}

func TestCheckOutput(t *testing.T) {
	input := []uint32{5, 3, 1, 4, 2}
	if rep := CheckOutput(input, []uint32{1, 2, 3, 4, 5}); !rep.OK() {
		t.Fatalf("clean output flagged: %v", rep.Violations)
	}
	rep := CheckOutput(input, []uint32{1, 2, 4, 3, 5})
	if rep.OK() {
		t.Fatal("unsorted output passed")
	}
	if rep := CheckOutput(input, []uint32{1, 2, 3}); !hasCode(rep, "result-shape") {
		t.Fatalf("length mismatch not caught: %v", rep.Violations)
	}
}

func TestCheckPlan(t *testing.T) {
	keys := dataset.Uniform(5000, 23)
	plan, err := core.Planner{
		Config:    core.Config{Algorithm: sorts.MSD{Bits: 6}, T: 0.055, Seed: 2},
		PilotSize: 512,
	}.Plan(keys)
	if err != nil {
		t.Fatal(err)
	}
	if rep := CheckPlan(len(keys), plan); !rep.OK() {
		t.Fatalf("clean plan flagged: %v", rep.Violations)
	}

	bad := plan
	bad.PredictedRem = len(keys) + 1
	if rep := CheckPlan(len(keys), bad); !hasCode(rep, "plan-range") {
		t.Fatal("out-of-range PredictedRem not caught")
	}
}

func TestReportErr(t *testing.T) {
	rep := &Report{}
	if rep.Err() != nil {
		t.Fatal("empty report should have nil Err")
	}
	rep.check(false, "a", "first")
	rep.check(false, "b", "second")
	err := rep.Err()
	if err == nil || !strings.Contains(err.Error(), "a: first") ||
		!strings.Contains(err.Error(), "1 more") {
		t.Fatalf("unexpected summary: %v", err)
	}
}

func TestDiffKeys(t *testing.T) {
	if d := DiffKeys([]uint32{1, 2, 3}, []uint32{1, 2, 3}); d != nil {
		t.Fatalf("equal slices diffed: %v", d)
	}
	d := DiffKeys([]uint32{1, 2, 3, 4}, []uint32{1, 9, 3, 8})
	if d == nil || d.Index != 1 || d.Want != 2 || d.Got != 9 || d.Mismatches != 2 {
		t.Fatalf("unexpected diff: %+v", d)
	}
	if d := DiffKeys([]uint32{1, 2}, []uint32{1}); d == nil || d.Mismatches != 1 {
		t.Fatalf("length mismatch not counted: %+v", d)
	}
}
