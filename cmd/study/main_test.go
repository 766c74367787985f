package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// goldenArgs are the small-n arguments behind testdata/<fig>.golden. The
// goldens were captured from the per-study commands this one replaced.
// Figure 10 has none: its n axis is fixed at {1.6K ... 1.6M}, and
// results/fig10.txt covers it.
var goldenArgs = map[string][]string{
	"2": {"-n", "2000"}, "density": {"-n", "500"}, "4": {"-n", "1000", "-csv"}, "table3": {"-n", "3000"},
	"5": {"-n", "2000"}, "6": {"-n", "2000"}, "7": {"-n", "2000"}, "measures": {"-n", "2000"},
	"9": {"-n", "2000"}, "11": {"-n", "3000"}, "memsim": {"-n", "3000", "-seq", "0.6"}, "robust": {"-n", "2000"},
	"12": {"-n", "3000"}, "13": {"-n", "3000"}, "14": {"-n", "3000"}, "15": {"-n", "2000"},
	"trace-record": {"-n", "2000"}, "trace-replay": {"-seq", "0.6"},
}

func runOut(args ...string) (string, error) {
	var out strings.Builder
	err := run(args, &out)
	return out.String(), err
}

// record captures the trace the trace goldens were made from.
func record(t *testing.T) string {
	path := filepath.Join(t.TempDir(), "trace.bin")
	if _, err := runOut("-fig", "trace-record", "-n", "2000", "-trace", path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGolden(t *testing.T) {
	tracePath := record(t)
	for _, fig := range figures {
		if fig.name == "10" {
			continue
		}
		t.Run(fig.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", fig.name+".golden"))
			if err != nil || goldenArgs[fig.name] == nil {
				t.Fatalf("no golden for -fig %s: %v", fig.name, err)
			}
			args := append([]string{"-fig", fig.name}, goldenArgs[fig.name]...)
			if fig.uses("trace") {
				args = append(args, "-trace", tracePath)
			}
			variants := [][]string{args}
			if fig.uses("workers") { // results are identical for any worker count
				args = slices.Clip(args)
				variants = [][]string{append(args, "-workers", "1"), append(args, "-workers", "4")}
			}
			for _, v := range variants {
				got, err := runOut(v...)
				if err != nil {
					t.Fatal(err)
				}
				if got = strings.ReplaceAll(got, tracePath, "trace.bin"); got != string(want) {
					t.Errorf("study %s differs from its golden:\n%s", strings.Join(v, " "), got)
				}
				// Precision is unconditional: no row may report unsorted output.
				if strings.Contains(got, "false") {
					t.Errorf("study %s: a row reports unsorted output", strings.Join(v, " "))
				}
			}
		})
	}
}

// TestFlags covers rejected command lines (err is a substring of the
// error) and accepted ones (out is a substring of the output), one
// subtest per command line. TRACE stands for a recorded trace file.
func TestFlags(t *testing.T) {
	tracePath := record(t)
	for _, c := range []struct {
		name     string
		args     []string
		err, out string
	}{
		{name: "no-fig", args: nil, err: "trace-replay"},
		{name: "unknown-fig", args: []string{"-fig", "3"}, err: "table3"},
		{name: "unknown-flag", args: []string{"-fig", "4", "-nosuchflag"}, err: "nosuchflag"},
		{name: "extra-arg", args: []string{"-fig", "4", "extra"}, err: "extra"},
		{name: "fig2-zero-n", args: []string{"-fig", "2", "-n", "0"}, err: "-n must be positive"},
		{name: "fig4-negative-n", args: []string{"-fig", "4", "-n", "-5"}, err: "-n must be positive"},
		{name: "fig9-zero-n", args: []string{"-fig", "9", "-n", "0"}, err: "-n must be positive"},
		{name: "fig12-zero-n", args: []string{"-fig", "12", "-n", "0"}, err: "-n must be positive"},
		{name: "fig15-negative-n", args: []string{"-fig", "15", "-n", "-1"}, err: "-n must be positive"},
		{name: "trace-record-zero-n", args: []string{"-fig", "trace-record", "-n", "0", "-trace", "TRACE"}, err: "-n must be positive"},
		{name: "fig11-zero-T", args: []string{"-fig", "11", "-T", "0"}, err: "-T"},
		{name: "fig5-large-T", args: []string{"-fig", "5", "-T", "0.5"}, err: "-T"},
		{name: "memsim-large-seq", args: []string{"-fig", "memsim", "-seq", "1.5"}, err: "-seq"},
		// A flag the figure does not use.
		{name: "fig10-unused-n", args: []string{"-fig", "10", "-n", "1000"}, err: "does not use -n"},
		{name: "fig9-unused-T", args: []string{"-fig", "9", "-T", "0.055"}, err: "does not use -T"},
		{name: "fig2-unused-T", args: []string{"-fig", "2", "-T", "0.03"}, err: "does not use -T"},
		{name: "fig6-unused-csv", args: []string{"-fig", "6", "-csv"}, err: "does not use -csv"},
		{name: "fig11-unused-seq", args: []string{"-fig", "11", "-seq", "0.6"}, err: "does not use -seq"},
		{name: "fig4-unused-trace", args: []string{"-fig", "4", "-trace", "TRACE"}, err: "does not use -trace"},
		{name: "trace-replay-unused-n-seed", args: []string{"-fig", "trace-replay", "-trace", "TRACE", "-n", "10", "-seed", "2"}, err: "does not use -n, -seed"},
		{name: "trace-record-unused-workers", args: []string{"-fig", "trace-record", "-trace", "TRACE", "-workers", "2"}, err: "does not use -workers"},
		{name: "trace-record-no-trace", args: []string{"-fig", "trace-record"}, err: "needs -trace"},
		{name: "trace-replay-missing-file", args: []string{"-fig", "trace-replay", "-trace", "/does/not/exist"}, err: "exist"},
		// -T overrides the figure's own T, even where it equals another default.
		{name: "fig5-T", args: []string{"-fig", "5", "-n", "500", "-T", "0.055"}, out: "at T=0.055"},
		{name: "fig7-T", args: []string{"-fig", "7", "-n", "500", "-T", "0.06"}, out: "at T=0.060"},
		{name: "fig11-T", args: []string{"-fig", "11", "-n", "1000", "-T", "0.06"}, out: "at T=0.060"},
		{name: "fig2-csv", args: []string{"-fig", "2", "-n", "500", "-csv"}, out: "T,avg#P (2a),p(t)"},
		{name: "trace-replay", args: []string{"-fig", "trace-replay", "-trace", "TRACE"}, out: "CPU-visible memory time"},
	} {
		t.Run(c.name, func(t *testing.T) {
			args := slices.Clone(c.args)
			for i, a := range args {
				if a == "TRACE" {
					args[i] = tracePath
				}
			}
			out, err := runOut(args...)
			switch {
			case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
				t.Errorf("study %s: error %v, want one mentioning %q", strings.Join(c.args, " "), err, c.err)
			case c.err == "" && err != nil:
				t.Errorf("study %s: %v", strings.Join(c.args, " "), err)
			case !strings.Contains(out, c.out):
				t.Errorf("study %s: output lacks %q:\n%s", strings.Join(c.args, " "), c.out, out)
			}
		})
	}
}

// TestRunAllScript checks results/run_all.sh against the figure table:
// every line is a valid study command line, and every committed
// results/*.txt is written by exactly one line.
func TestRunAllScript(t *testing.T) {
	script, err := os.ReadFile(filepath.Join("..", "..", "results", "run_all.sh"))
	if err != nil {
		t.Fatal(err)
	}
	written := map[string]int{}
	for _, line := range strings.Split(string(script), "\n") {
		if !strings.HasPrefix(line, "go run ") {
			continue
		}
		rest, study := strings.CutPrefix(line, "go run ./cmd/study ")
		cmd, out, ok := strings.Cut(rest, ">")
		if !study || !ok {
			t.Errorf("line %q is not `go run ./cmd/study ... > results/FILE`", line)
			continue
		}
		if _, _, err := parse(strings.Fields(cmd), &strings.Builder{}); err != nil {
			t.Errorf("line %q: %v", line, err)
		}
		written[strings.TrimSpace(out)]++
	}
	committed, _ := filepath.Glob(filepath.Join("..", "..", "results", "*.txt"))
	for _, p := range committed {
		if name := "results/" + filepath.Base(p); written[name] != 1 {
			t.Errorf("%s is written by %d run_all.sh lines, want 1", name, written[name])
		}
		delete(written, "results/"+filepath.Base(p))
	}
	for name := range written {
		t.Errorf("run_all.sh writes %s, which is not committed", name)
	}
}
