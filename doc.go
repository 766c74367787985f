// Package approxsort is a reproduction of "A Study of Sorting Algorithms
// on Approximate Memory" (Chen, Jiang, He, Tang — SIGMOD 2016): sorting on
// a hybrid memory system that pairs precise multi-level-cell PCM with
// approximate PCM whose narrowed program-and-verify guard bands trade
// occasional storage errors for up to ~50% lower write latency.
//
// The repository contains, all stdlib-only:
//
//   - the MLC PCM cell model with Monte-Carlo calibration (internal/mlc)
//     and the approximate spintronic model of Appendix A
//     (internal/spintronic);
//   - instrumented hybrid-memory arrays with full latency/energy
//     accounting (internal/mem), plus the Table 1 cache hierarchy
//     (internal/cache), banked PCM timing simulator (internal/pcm), trace
//     infrastructure (internal/trace) and system glue (internal/hybrid);
//   - the four studied sorting algorithms (internal/sorts), the
//     histogram-based radix sorts of Appendix B (internal/histsort) and an
//     adaptive-sort refine baseline (internal/adaptive);
//   - the paper's core contribution, the approx-refine execution mechanism
//     with its Section 4.3 cost model (internal/core);
//   - one experiment function per table/figure (internal/experiments), the
//     cmd/study figure table that prints them, and benchmarks in
//     bench_test.go.
//
// Start with examples/quickstart, then see DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-versus-measured results.
package approxsort
