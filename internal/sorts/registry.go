package sorts

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// This file is the algorithm-axis mirror of the internal/memmodel backend
// registry: a name-keyed table of Algorithm constructors, each carrying a
// declared cost Profile, so the planner, the sortd API, the experiment
// drivers and the CLIs all resolve algorithms through one seam. A new
// sorting algorithm is an init-time Register call plus a Profile — no
// switch statements to grow.

// Profile declares an algorithm's cost shape — the facts the planner and
// the verifier consume without running the sort.
type Profile struct {
	// Alpha is αalg(n): the analytic expected number of key memory writes
	// to sort n elements (Section 4.3). Nil means the algorithm has no
	// analytic write model and the planner cannot route it.
	Alpha func(n int) float64
	// Passes is the number of full data passes for pass-structured
	// algorithms (the LSD family); 0 means the pass count is size- or
	// data-dependent (comparison sorts, MSD recursion).
	Passes int
	// ExactWrites marks Alpha as an exact structural count of the sort's
	// key writes for n ≥ 2, not just an expectation. The verifier pins
	// such algorithms' approx-stage write counters to Alpha run-for-run.
	ExactWrites bool
	// Reorderable marks algorithms with a bulk path gated on
	// mem.Reorderable (the access-equivalent slice rewrite of the radix
	// passes).
	Reorderable bool
	// SortsIDs marks support for the refine stage's SortIDs contract
	// (every registered algorithm supports it; histogram-style rewrites
	// that cannot sort by key lookup would not).
	SortsIDs bool
}

// WritesPerElement returns α(n)/n, the profile's writes-per-element
// coefficient at size n (0 when n < 1 or Alpha is nil).
func (p Profile) WritesPerElement(n int) float64 {
	if n < 1 || p.Alpha == nil {
		return 0
	}
	return p.Alpha(n) / float64(n)
}

// Profiled is implemented by Algorithm values that declare a cost profile.
// Every registry algorithm implements it; ad-hoc algorithms (the histsort
// rewrites) may not, in which case the planner refuses to route them.
type Profiled interface {
	Profile() Profile
}

// ProfileOf returns alg's declared profile, if it has one.
func ProfileOf(alg Algorithm) (Profile, bool) {
	p, ok := alg.(Profiled)
	if !ok {
		return Profile{}, false
	}
	return p.Profile(), true
}

// AlphaQuicksort returns αquicksort(n) ≈ n·log2(n)/2.
func AlphaQuicksort(n int) float64 {
	if n < 2 {
		return 0
	}
	return float64(n) * math.Log2(float64(n)) / 2
}

// AlphaMergesort returns αmergesort(n) ≈ n·log2(n).
func AlphaMergesort(n int) float64 {
	if n < 2 {
		return 0
	}
	return float64(n) * math.Log2(float64(n))
}

// AlphaRadix returns αLSD/MSD(n) for queue-bucket radix with b-bit digits:
// two key writes per element per pass, ceil(32/b) passes. (MSD on uniform
// keys recurses nearly to full depth, so the same count is the paper's
// working approximation: αradix(n)/n is a constant.)
func AlphaRadix(bits int) func(n int) float64 {
	passes := (32 + bits - 1) / bits
	return func(n int) float64 { return float64(2 * passes * n) }
}

// Info is one registry entry: the constructor plus the metadata the API
// layers serve (GET /v1/algorithms) and the auto planner consults.
type Info struct {
	// Name is the registry key ("quicksort", "lsd", "onesweep-lsd", …).
	Name string
	// Doc is a one-line description.
	Doc string
	// Radix marks algorithms parameterized by a digit width; DefaultBits
	// is the width New applies when the caller passes 0 (also the width
	// AutoCandidates evaluates the algorithm at).
	Radix       bool
	DefaultBits int
	// Auto includes the algorithm in the mode=auto selection roster.
	Auto bool
	// New constructs the algorithm at the given digit width (ignored for
	// non-radix algorithms; 0 selects DefaultBits).
	New func(bits int) Algorithm
}

// construct applies the DefaultBits fallback.
func (in Info) construct(bits int) Algorithm {
	if bits == 0 {
		bits = in.DefaultBits
	}
	return in.New(bits)
}

// UnknownAlgorithmError is returned by Lookup and New for names absent
// from the registry. sortd surfaces it as HTTP 400 with the allowed names.
type UnknownAlgorithmError struct {
	Name string
}

func (e *UnknownAlgorithmError) Error() string {
	return fmt.Sprintf("sorts: unknown algorithm %q (registered: %s)",
		e.Name, strings.Join(Names(), ", "))
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Info)
)

// Register adds an algorithm under its Name. It panics on a duplicate,
// empty or constructor-less entry (registration is an init-time
// programming act).
func Register(in Info) {
	if in.Name == "" {
		panic("sorts: Register with empty algorithm name")
	}
	if in.New == nil {
		panic(fmt.Sprintf("sorts: Register(%q) with nil constructor", in.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[in.Name]; dup {
		panic(fmt.Sprintf("sorts: duplicate algorithm %q", in.Name))
	}
	registry[in.Name] = in
}

// Lookup returns the registry entry for name. Unknown names yield
// *UnknownAlgorithmError.
func Lookup(name string) (Info, error) {
	regMu.RLock()
	in, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return Info{}, &UnknownAlgorithmError{Name: name}
	}
	return in, nil
}

// New constructs the named algorithm at the given digit width (0 selects
// the entry's default width; the width is ignored for non-radix
// algorithms). Unknown names yield *UnknownAlgorithmError.
func New(name string, bits int) (Algorithm, error) {
	in, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return in.construct(bits), nil
}

// Resolve is New under the service's naming: "auto" and the empty name
// stand for the paper's default, MSD radix (6-bit at bits 0, the Figure 9
// winner). Every sortd job class and the cluster coordinator resolve
// algorithm names here; only the in-memory executor pilots the roster
// instead (core.Planner.PlanAuto) before it names an algorithm.
func Resolve(name string, bits int) (Algorithm, error) {
	if name == "" || name == "auto" {
		name = "msd"
	}
	return New(name, bits)
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Infos returns every registry entry, sorted by name.
func Infos() []Info {
	names := Names()
	infos := make([]Info, 0, len(names))
	for _, name := range names {
		in, _ := Lookup(name)
		infos = append(infos, in)
	}
	return infos
}

// Roster constructs algorithms by registry name, each at its default
// digit width when bits is 0.
func Roster(names []string, bits int) ([]Algorithm, error) {
	algs := make([]Algorithm, 0, len(names))
	for _, name := range names {
		alg, err := New(name, bits)
		if err != nil {
			return nil, err
		}
		algs = append(algs, alg)
	}
	return algs, nil
}

// Candidate pairs a constructed algorithm with its registry name, which
// travels through auto-selection into plans, metrics labels and reports.
type Candidate struct {
	Name string
	Alg  Algorithm
}

// AutoCandidates returns the mode=auto selection roster: every Auto-marked
// entry at its default digit width, in sorted name order — the iteration
// order is part of the planner's determinism contract (ties break to the
// earlier name).
func AutoCandidates() []Candidate {
	var cands []Candidate
	for _, in := range Infos() {
		if in.Auto {
			cands = append(cands, Candidate{Name: in.Name, Alg: in.construct(0)})
		}
	}
	return cands
}

func init() {
	Register(Info{
		Name: "quicksort",
		Doc:  "randomized quicksort with Hoare partitioning (≈ n·log2(n)/2 key writes, the fewest of the roster)",
		Auto: true,
		New:  func(int) Algorithm { return Quicksort{} },
	})
	Register(Info{
		Name: "mergesort",
		Doc:  "bottom-up ping-pong mergesort (≈ n·log2(n) key writes; most sensitive to approximate memory)",
		Auto: true,
		New:  func(int) Algorithm { return Mergesort{} },
	})
	Register(Info{
		Name:        "lsd",
		Doc:         "least-significant-digit radix sort with queue buckets (2·ceil(32/b)·n key writes)",
		Radix:       true,
		DefaultBits: 6,
		Auto:        true,
		New:         func(bits int) Algorithm { return LSD{Bits: bits} },
	})
	Register(Info{
		Name:        "msd",
		Doc:         "most-significant-digit radix sort with queue buckets and insertion-sort leaves",
		Radix:       true,
		DefaultBits: 6,
		Auto:        true,
		New:         func(bits int) Algorithm { return MSD{Bits: bits} },
	})
	Register(Info{
		Name:        "onesweep-lsd",
		Doc:         "write-combining LSD radix: wide digits, fused count+read sweep, per-bucket software write-combining buffers (2·ceil(32/b)·n key writes at b=8: 8n, vs 12n for 6-bit LSD)",
		Radix:       true,
		DefaultBits: 8,
		Auto:        true,
		New:         func(bits int) Algorithm { return OneSweepLSD{Bits: bits} },
	})
}
