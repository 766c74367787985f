// Command study regenerates the paper's evaluation, one figure or table
// per run, from a single table of figures over internal/experiments:
//
//	go run ./cmd/study -fig NAME [-n N] [-T T] [-seed S] [-csv]
//	                   [-workers W] [-seq F] [-trace FILE]
//
// `study -h` lists the names: Figs. 2, 4–7, 9–15, Table 3, the access-time
// simulation, trace capture/replay (§3.2, Table 1) and three extension
// studies. -n and -T default to the figure's own values; a flag the chosen
// figure does not use is an error. The paper's runs use 16M records; the
// defaults are scaled down, and results/run_all.sh records the sizes
// behind results/ (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"approxsort/internal/experiments"
	"approxsort/internal/memmodel"
	"approxsort/internal/mlc"
	"approxsort/internal/parallel"
	"approxsort/internal/pcm"
	"approxsort/internal/sorts"
	"approxsort/internal/spintronic"
	"approxsort/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("study: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// opts are one run's settings: the figure's defaults with the command
// line's overrides applied.
type opts struct {
	n, workers int
	t, seq     float64
	seed       uint64
	csv        bool
	trace      string
}

// figure is one regenerable paper artifact.
type figure struct {
	name, paper string
	n           int     // default record (or word) count; 0: no -n
	t           float64 // default half-width T; 0: sweeps T or has none
	flags       string  // the flags it honours besides -fig, -n and -T
	run         func(w io.Writer, o opts) error
	footer      string // the paper-anchor note printed after the output
}

const (
	sweep           = "seed csv workers" // the flags of every tabulated sweep
	traceWriteNanos = mlc.PreciseWriteNanos
)

var figures = []figure{
	{name: "2", paper: "Fig. 2: MLC write performance and accuracy vs T", n: 200000, flags: sweep, run: fig2,
		footer: "Paper anchors: avg#P ~2.98 at T=0.025 (Table 2); ~50% latency reduction\n" +
			"at T=0.1 (Section 2.2); errors negligible below T~0.05, steep past 0.06."},
	{name: "density", paper: "cell density: SLC vs 4-level vs 16-level", n: 200000, flags: sweep, run: density,
		footer: "Denser cells: fewer cells per word but more P&V pulses and higher error\n" +
			"rates at the same guard fraction - the trade-off behind approximate MLC.\n" +
			"Note: the default drift magnitude (~0.034) exceeds a 16-level band's\n" +
			"half-width (1/32), so 16-level cells are unusable without scrubbing -\n" +
			"one reason 2-bit MLC is the industry default the paper adopts."},
	{name: "4", paper: "Fig. 4: error rate, Rem ratio and write reduction vs T, approx-only", n: 100000, flags: sweep,
		run: sortOnly("Figure 4: sorting %d keys in approximate memory only", mlc.StandardTs(false))},
	{name: "table3", paper: "Table 3: Rem ratio at T in {0.03, 0.055, 0.1}", n: 100000, flags: sweep,
		run: sortOnly("Table 3: Rem ratio after sorting %d keys in approximate memory", []float64{0.03, 0.055, 0.1}),
		footer: "Paper (16M keys): T=0.03 ~0%; T=0.055 QS 1.92% LSD 1.02% MSD 1.00%\n" +
			"Mergesort 55.8%; T=0.1 QS 96.9% LSD 95.7% MSD 83.8% Mergesort 99.9%."},
	{name: "5", paper: "Fig. 5: shape of X after sorting at T=0.03", n: 100000, t: 0.03, flags: "seed workers", run: shapes},
	{name: "6", paper: "Fig. 6: shape of X after sorting at T=0.055", n: 100000, t: 0.055, flags: "seed workers", run: shapes},
	{name: "7", paper: "Fig. 7: shape of X after sorting at T=0.1", n: 100000, t: 0.1, flags: "seed workers", run: shapes},
	{name: "measures", paper: "§3.3: every disorder measure on quicksort output", n: 100000, flags: sweep, run: measures,
		footer: "Rem counts exactly the records the refine stage must re-sort; Inv and\n" +
			"Osc explode quadratically and Dis/Max saturate after one far-flung error."},
	{name: "9", paper: "Fig. 9: approx-refine write reduction vs T, with the Eq. 4 model", n: 100000, flags: sweep, run: fig9,
		footer: "Paper (16M): peaks at T=0.055; radix ~10%, quicksort ~4%, mergesort\n" +
			"never positive; negative below T=0.03 (p~1) and above T~0.07 (refine blows up)."},
	{name: "10", paper: "Fig. 10: approx-refine write reduction vs n in {1.6K ... 1.6M}", t: 0.055, flags: sweep, run: fig10,
		footer: "Paper: growing with n for quicksort/MSD, non-monotone for LSD,\n" +
			"mergesort negative throughout; maxima 11% (3-bit LSD), 10.3% (3-bit MSD), 4% (QS)."},
	{name: "11", paper: "Fig. 11: write-latency breakdown into approx and refine", n: 100000, t: 0.055, flags: sweep, run: fig11,
		footer: "Paper: refine overhead negligible except mergesort; 6-bit MSD and\n" +
			"quicksort cheapest overall; fewer bins -> larger totals."},
	{name: "memsim", paper: "abstract: access time through the Table 1 caches and banked PCM", n: 100000, t: 0.055, flags: sweep + " seq", run: memsim,
		footer: "The latency-sum column is the paper's metric (abstract: up to 11%).\n" +
			"The queue-aware column adds posted writes + read-priority scheduling:\n" +
			"writes overlap computation, so the CPU-visible gain is smaller."},
	{name: "robust", paper: "approx-refine across key distributions", n: 100000, t: 0.055, flags: sweep, run: robust,
		footer: "Every row must be sorted=true: precision is unconditional; only the\n" +
			"saving varies with the input shape."},
	{name: "12", paper: "Fig. 12: spintronic Rem ratio after approx-only sorting", n: 100000, flags: sweep, run: fig12,
		footer: "Paper: nearly sorted at 5% saving; mergesort collapses first; at 50%\n" +
			"saving (1e-4/bit) outputs degrade sharply."},
	{name: "13", paper: "Fig. 13: spintronic write-energy saving under approx-refine", n: 100000, flags: sweep, run: fig13,
		footer: "Paper (16M): best at 20-33% per-write saving; radix up to 13.4%,\n" +
			"quicksort up to 7.5%, mergesort never positive."},
	{name: "14", paper: "Fig. 14: spintronic write-energy breakdown at the 33% point", n: 100000, flags: sweep, run: fig14,
		footer: "Paper: refine energy mostly negligible except mergesort."},
	{name: "15", paper: "Fig. 15: histogram-based radix write reduction vs T", n: 100000, flags: sweep, run: fig15,
		footer: "Paper: peaks at T=0.055-0.06; ~10% for 3-bit, ~5% for 6-bit - smaller\n" +
			"than queue-bucket radix because the baseline already writes half as much."},
	{name: "trace-record", paper: "§3.2: capture a quicksort's memory-access trace to -trace", n: 100000, flags: "seed trace", run: traceRecord},
	{name: "trace-replay", paper: "Table 1: replay the -trace file through caches and banked PCM", flags: "seq trace", run: traceReplay},
}

// uses reports whether the figure honours the named flag.
func (f figure) uses(name string) bool {
	switch name {
	case "fig":
		return true
	case "n":
		return f.n > 0
	case "T":
		return f.t > 0
	}
	return strings.Contains(" "+f.flags+" ", " "+name+" ")
}

func lookup(name string) (figure, error) {
	names := make([]string, len(figures))
	for i, f := range figures {
		if f.name == name {
			return f, nil
		}
		names[i] = f.name
	}
	return figure{}, fmt.Errorf("unknown -fig %q; choose one of: %s", name, strings.Join(names, ", "))
}

// parse resolves a command line into the figure and its settings,
// rejecting any flag the figure would ignore.
func parse(args []string, stdout io.Writer) (figure, opts, error) {
	fs := flag.NewFlagSet("study", flag.ContinueOnError)
	fs.SetOutput(stdout)
	name := fs.String("fig", "", "figure or table to regenerate (listed below)")
	n := fs.Int("n", 0, "records (words for -fig 2|density); default: the figure's own")
	t := fs.Float64("T", 0, "target half-width T; default: the figure's own")
	var o opts
	fs.Uint64Var(&o.seed, "seed", 1, "RNG seed")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of an aligned table")
	fs.IntVar(&o.workers, "workers", 0, "concurrent sweep points (<=0: one per CPU; results are identical for any value)")
	fs.Float64Var(&o.seq, "seq", 0, "row-buffer discount for sequential PCM writes (0=off, e.g. 0.6)")
	fs.StringVar(&o.trace, "trace", "", "trace file written by -fig trace-record and read by -fig trace-replay")
	fs.Usage = func() {
		fs.PrintDefaults()
		for _, f := range figures {
			fmt.Fprintf(fs.Output(), "  -fig %-13s %s\n", f.name, f.paper)
		}
	}
	if err := fs.Parse(args); err != nil {
		return figure{}, o, err
	}
	if fs.NArg() > 0 {
		return figure{}, o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	fig, err := lookup(*name)
	if err != nil {
		return figure{}, o, err
	}
	set := map[string]bool{}
	var unused []string
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if !fig.uses(f.Name) {
			unused = append(unused, "-"+f.Name)
		}
	})
	if len(unused) > 0 {
		return figure{}, o, fmt.Errorf("-fig %s does not use %s", fig.name, strings.Join(unused, ", "))
	}
	o.n, o.t = fig.n, fig.t
	if set["n"] {
		o.n = *n
	}
	if set["T"] {
		o.t = *t
	}
	if fig.uses("n") && o.n <= 0 {
		return figure{}, o, fmt.Errorf("-n must be positive, got %d", o.n)
	}
	if fig.uses("T") {
		if _, _, err := memmodel.Resolve(memmodel.PCMMLC, map[string]float64{"t": o.t}, 0); err != nil {
			return figure{}, o, fmt.Errorf("-T: %w", err)
		}
	}
	if err := device(o.seq).Validate(); err != nil {
		return figure{}, o, fmt.Errorf("-seq: %w", err)
	}
	if fig.uses("trace") && o.trace == "" {
		return figure{}, o, fmt.Errorf("-fig %s needs -trace FILE", fig.name)
	}
	return fig, o, nil
}

func run(args []string, stdout io.Writer) error {
	fig, o, err := parse(args, stdout)
	if err == nil {
		err = fig.run(stdout, o)
	}
	if err == nil && fig.footer != "" {
		fmt.Fprintf(stdout, "\n%s\n", fig.footer)
	}
	return err
}

// device is the Table 1 PCM device with the given sequential-write
// discount.
func device(seq float64) pcm.Config {
	dev := pcm.DefaultConfig()
	dev.SeqWriteFactor = seq
	return dev
}

// tabulate prints one row per result under the given column names, or
// returns the sweep's error.
func tabulate[R any](w io.Writer, o opts, rows []R, err error, cols []string, row func(R) []any) error {
	if err != nil {
		return err
	}
	tab := stats.NewTable(cols...)
	for _, r := range rows {
		tab.AddRow(row(r)...)
	}
	if o.csv {
		return tab.WriteCSV(w)
	}
	return tab.Write(w)
}

func fig2(w io.Writer, o opts) error {
	fmt.Fprintf(w, "Figure 2: MLC write performance and accuracy vs T (%d words/point)\n\n", o.n)
	return tabulate(w, o, experiments.Fig2(o.n, o.seed, true, o.workers), nil,
		[]string{"T", "avg#P (2a)", "p(t)", "cellErr (2b)", "wordErr (2b)", "writeReduction"},
		func(r mlc.Stats) []any {
			return []any{r.T, r.AvgP, r.PRatio(), r.CellErrorRate, r.WordErrorRate, r.WriteReduction()}
		})
}

func density(w io.Writer, o opts) error {
	fmt.Fprintf(w, "Cell-density study: SLC vs 4-level vs 16-level at fixed guard fractions (%d words/point)\n\n", o.n)
	return tabulate(w, o, mlc.DensitySweep(o.n, o.seed, o.workers), nil,
		[]string{"levels", "bits/cell", "guardFrac", "T", "avg#P", "cellErr", "wordErr"},
		func(r mlc.DensityPoint) []any {
			return []any{r.Levels, r.Params.BitsPerCell(), r.GuardFraction, r.Params.T, r.Stats.AvgP, r.Stats.CellErrorRate, r.Stats.WordErrorRate}
		})
}

// sortOnlyAlgorithms is the Section 3 roster, with 6-bit radix digits.
var sortOnlyAlgorithms = []sorts.Algorithm{sorts.LSD{Bits: 6}, sorts.MSD{Bits: 6}, sorts.Quicksort{}, sorts.Mergesort{}}

// sortOnly tabulates the Section 3 sort-only study over ts under the
// given header (Figure 4 and Table 3).
func sortOnly(header string, ts []float64) func(io.Writer, opts) error {
	return func(w io.Writer, o opts) error {
		fmt.Fprintf(w, header+"\n\n", o.n)
		rows, err := experiments.Fig4(sortOnlyAlgorithms, ts, o.n, o.seed, o.workers)
		return tabulate(w, o, rows, err, []string{"algorithm", "T", "errorRate (4a)", "remRatio (4b)", "writeReduction (4c)"},
			func(r experiments.SortOnlyRow) []any {
				return []any{r.Algorithm, r.T, r.ErrorRate, r.RemRatio, r.WriteReduction}
			})
	}
}

// shapes plots each algorithm's post-sort sequence (Figures 5–7).
func shapes(w io.Writer, o opts) error {
	algs := sortOnlyAlgorithms
	xss, err := parallel.Map(algs, o.workers, func(_ int, alg sorts.Algorithm) ([]uint32, error) {
		return experiments.ShapeAt(alg, memmodel.MLC(o.t), o.n, o.seed)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figures 5-7: shape of X after sorting %d keys at T=%.3f\n", o.n, o.t)
	for i, alg := range algs {
		fmt.Fprintf(w, "\n%s:\n", alg.Name())
		if err := stats.ScatterPlot(w, xss[i], 16, 72); err != nil {
			return err
		}
	}
	return nil
}

func measures(w io.Writer, o opts) error {
	fmt.Fprintf(w, "Disorder-measure comparison (Section 3.3) on quicksort output, %d keys\n\n", o.n)
	rows, err := experiments.MeasureComparison(sorts.Quicksort{}, mlc.StandardTs(false), o.n, o.seed, o.workers)
	return tabulate(w, o, rows, err, []string{"T", "Rem", "Ham", "Dis", "Runs", "Inv", "Osc", "Max"},
		func(r experiments.MeasureRow) []any {
			return []any{r.T, r.Rem, r.Ham, r.Dis, r.Runs, r.Inv, r.Osc, r.Max}
		})
}

func fig9(w io.Writer, o opts) error {
	fmt.Fprintf(w, "Figure 9: approx-refine write reduction vs T (%d records)\n\n", o.n)
	rows, err := experiments.Fig9(experiments.StudyAlgorithms(), mlc.StandardTs(false), o.n, o.seed, o.workers)
	return refineTable(w, o, rows, err)
}

func fig10(w io.Writer, o opts) error {
	fmt.Fprintf(w, "Figure 10: approx-refine write reduction vs n at T=%.3f\n\n", o.t)
	ns := []int{1600, 16000, 160000, 1600000}
	rows, err := experiments.Fig10(experiments.StudyAlgorithms(3, 6), o.t, ns, o.seed, o.workers)
	return refineTable(w, o, rows, err)
}

func refineTable(w io.Writer, o opts, rows []experiments.RefineRow, err error) error {
	return tabulate(w, o, rows, err, []string{"algorithm", "T", "n", "WR measured", "WR model (Eq4)", "Rem~/n", "sorted"},
		func(r experiments.RefineRow) []any {
			return []any{r.Algorithm, r.T, r.N, r.WriteReduction, r.ModelWR, r.RemTildeRatio, r.Sorted}
		})
}

func fig11(w io.Writer, o opts) error {
	fmt.Fprintf(w, "Figure 11: write-latency breakdown at T=%.3f (%d records),\n", o.t, o.n)
	fmt.Fprintf(w, "normalized to 3-bit LSD's approx phase\n\n")
	rows, err := experiments.Fig11(experiments.StudyAlgorithms(), o.t, o.n, o.seed, o.workers)
	return breakdown(w, o, rows, err, func(r experiments.RefineRow) (float64, float64) {
		return r.ApproxWriteNanos, r.RefineWriteNanos
	})
}

func fig14(w io.Writer, o opts) error {
	cfg := spintronic.Presets()[2] // the 33% operating point
	fmt.Fprintf(w, "Figure 14: write-energy breakdown at %.0f%% saving/write (%d records),\n", cfg.Saving*100, o.n)
	fmt.Fprintf(w, "normalized to 3-bit LSD's approx energy\n\n")
	// The backend-parameterized sweep Fig13 wraps, at one point: its seeds
	// are keyed by the point's coordinates, so the rows match Fig13's.
	pts := []memmodel.Point{memmodel.Spintronic(cfg)}
	rows, err := experiments.RefineGrid(experiments.StudyAlgorithms(), pts, o.n, o.seed, o.workers)
	return breakdown(w, o, rows, err, func(r experiments.RefineRow) (float64, float64) {
		return r.ApproxEnergy, r.RefineEnergy
	})
}

// breakdown tabulates each row's approx and refine cost normalized to
// 3-bit LSD's approx cost (Figures 11 and 14).
func breakdown(w io.Writer, o opts, rows []experiments.RefineRow, err error, cost func(experiments.RefineRow) (approx, refine float64)) error {
	var norm float64
	for _, r := range rows {
		if r.Algorithm == "3-bit LSD" {
			norm, _ = cost(r)
		}
	}
	if err == nil && norm == 0 {
		err = fmt.Errorf("3-bit LSD row missing for normalization")
	}
	return tabulate(w, o, rows, err, []string{"algorithm", "approx (norm)", "refine (norm)", "total (norm)", "refine share"},
		func(r experiments.RefineRow) []any {
			approx, refine := cost(r)
			return []any{r.Algorithm, approx / norm, refine / norm, (approx + refine) / norm, refine / (approx + refine)}
		})
}

func memsim(w io.Writer, o opts) error {
	fmt.Fprintf(w, "Memory access time through cache hierarchy + banked PCM at T=%.3f (%d records", o.t, o.n)
	if o.seq > 0 {
		fmt.Fprintf(w, ", sequential-write factor %.2f", o.seq)
	}
	fmt.Fprint(w, ")\n\n")
	algs := []sorts.Algorithm{sorts.LSD{Bits: 3}, sorts.MSD{Bits: 3}, sorts.Quicksort{}, sorts.Mergesort{}}
	rows, err := parallel.Map(algs, o.workers, func(_ int, alg sorts.Algorithm) (experiments.AccessTimeRow, error) {
		return experiments.AccessTimeWithDevice(alg, o.t, o.n, o.seed, device(o.seq))
	})
	return tabulate(w, o, rows, err, []string{"algorithm", "latency-sum reduction", "hybrid clock (ms)",
		"baseline clock (ms)", "queue-aware reduction"}, func(r experiments.AccessTimeRow) []any {
		return []any{r.Algorithm, r.LatencyReduction, r.HybridClockNanos / 1e6, r.BaselineClockNanos / 1e6, r.QueueAwareReduction}
	})
}

func robust(w io.Writer, o opts) error {
	fmt.Fprintf(w, "Robustness: approx-refine across key distributions at T=%.3f (%d records)\n\n", o.t, o.n)
	rows, err := experiments.Robustness(experiments.StudyAlgorithms(6), o.t, o.n, o.seed, o.workers)
	return tabulate(w, o, rows, err, []string{"algorithm", "distribution", "WR measured", "Rem~/n", "sorted"},
		func(r experiments.RobustnessRow) []any {
			return []any{r.Algorithm, string(r.Distribution), r.WriteReduction, r.RemTildeRatio, r.Sorted}
		})
}

func fig12(w io.Writer, o opts) error {
	fmt.Fprintf(w, "Figure 12: Rem ratio after sorting %d keys in approximate spintronic memory\n\n", o.n)
	rows, err := experiments.Fig12(sortOnlyAlgorithms, spintronic.Presets(), o.n, o.seed, o.workers)
	return tabulate(w, o, rows, err, []string{"algorithm", "saving/write", "bitErrProb", "remRatio", "errorRate"},
		func(r experiments.SpinSortRow) []any {
			return []any{r.Algorithm, r.Saving, r.BitErrorProb, r.RemRatio, r.ErrorRate}
		})
}

func fig13(w io.Writer, o opts) error {
	fmt.Fprintf(w, "Figure 13: write-energy saving under approx-refine (%d records)\n\n", o.n)
	rows, err := experiments.Fig13(experiments.StudyAlgorithms(), spintronic.Presets(), o.n, o.seed, o.workers)
	return tabulate(w, o, rows, err, []string{"algorithm", "saving/write", "energySaving", "Rem~/n", "sorted"},
		func(r experiments.SpinRefineRow) []any {
			return []any{r.Algorithm, r.Saving, r.EnergySaving, r.RemTildeRatio, r.Sorted}
		})
}

func fig15(w io.Writer, o opts) error {
	fmt.Fprintf(w, "Figure 15: approx-refine write reduction, histogram-based radix (%d records)\n\n", o.n)
	rows, err := experiments.Fig15(mlc.StandardTs(false), o.n, o.seed, o.workers)
	return tabulate(w, o, rows, err, []string{"algorithm", "T", "WR measured", "Rem~/n", "sorted"},
		func(r experiments.RefineRow) []any {
			return []any{r.Algorithm, r.T, r.WriteReduction, r.RemTildeRatio, r.Sorted}
		})
}

func traceRecord(w io.Writer, o opts) error {
	alg := sorts.Quicksort{}
	events, size, err := experiments.RecordTrace(o.trace, alg, o.n, o.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "captured %d events (%d bytes, %.2f B/event) from %s of %d records to %s\n",
		events, size, float64(size)/float64(events), alg.Name(), o.n, o.trace)
	return nil
}

func traceReplay(w io.Writer, o opts) error {
	events, st, err := experiments.ReplayTrace(o.trace, device(o.seq), traceWriteNanos)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replayed %d events through Table 1 memory system (write latency %.0f ns)\n\n", events, traceWriteNanos)
	fmt.Fprintf(w, "CPU-visible memory time: %.3f ms\n", st.Clock/1e6)
	fmt.Fprintf(w, "reads: %d (L1 %d / L2 %d / L3 %d / PCM %d)\n", st.Reads, st.L1Hits, st.L2Hits, st.L3Hits, st.MemReads)
	fmt.Fprintf(w, "writes: %d, write-queue stalls: %.3f ms (%d queue-full events)\n",
		st.Writes, st.WriteStallNanos/1e6, st.Device.WriteQueueFullEvents)
	fmt.Fprintf(w, "PCM read stall: %.3f ms; reads delayed by an in-flight write: %d\n",
		st.MemReadNanos/1e6, st.Device.ReadsDelayedByWrite)
	if o.seq > 0 {
		fmt.Fprintf(w, "sequential-write row-buffer hits: %d (factor %.2f)\n", st.Device.SeqWriteHits, o.seq)
	}
	return nil
}
