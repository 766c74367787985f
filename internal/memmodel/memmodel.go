// Package memmodel is the pluggable seam between the approx-refine
// machinery and the approximate-memory device models. The paper's core
// mechanism (Sections 4–5) is backend-agnostic: it needs an approximate
// space to sort in, a precise space to refine into, and a set of
// per-backend accounting identities the verifier can hold the run to.
// This package captures exactly that contract as the Backend interface
// plus a name-keyed registry, so the experiment sweeps, the verifier and
// the sortd service all route through one code path — and a new device
// model is a ~100-line registration instead of a pipeline fork.
//
// Three backends register at init: "pcm-mlc" (the Table 2 MLC PCM model,
// internal/mem + internal/mlc), "spintronic" (the Appendix A model,
// internal/spintronic), and "memristive" (the reduced-current ReRAM
// model, internal/memristive). DESIGN.md §12 walks through what a
// registration owes the seam, with the memristive backend as the worked
// example.
package memmodel

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"approxsort/internal/mem"
	"approxsort/internal/mlc"
)

// Point is one operating point of a backend: a backend name plus the
// backend-specific parameters (MLC's target half-width T, the spintronic
// model's saving/error-probability pair, …). It subsumes the scalar `t`
// and spintronic.Config arguments the pre-seam pipelines took.
type Point struct {
	Backend string             `json:"backend"`
	Params  map[string]float64 `json:"params,omitempty"`
}

// Param returns the named parameter and whether it is set.
func (p Point) Param(name string) (float64, bool) {
	v, ok := p.Params[name]
	return v, ok
}

// String renders the point compactly, parameters in schema order when the
// backend is registered (sorted by name otherwise).
func (p Point) String() string {
	names := make([]string, 0, len(p.Params))
	if b, err := Get(p.Backend); err == nil {
		for _, spec := range b.Params() {
			if _, ok := p.Params[spec.Name]; ok {
				names = append(names, spec.Name)
			}
		}
	} else {
		for name := range p.Params {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%g", name, p.Params[name]))
	}
	return p.Backend + "(" + strings.Join(parts, ",") + ")"
}

// clone returns a deep copy of the point, so Normalize never aliases
// caller-owned maps.
func (p Point) clone() Point {
	out := Point{Backend: p.Backend, Params: make(map[string]float64, len(p.Params))}
	for k, v := range p.Params {
		out.Params[k] = v
	}
	return out
}

// ParamSpec documents one backend parameter: GET /v1/backends serves the
// schema, Normalize enforces it.
type ParamSpec struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
	// Default is applied by Normalize when the parameter is absent.
	Default float64 `json:"default"`
	// Min and Max bound the accepted values. MinExclusive marks an open
	// lower bound (e.g. MLC's T must be strictly positive).
	Min          float64 `json:"min"`
	Max          float64 `json:"max"`
	MinExclusive bool    `json:"min_exclusive,omitempty"`
	// Seed marks parameters that key a grid point's RNG stream (see
	// Backend.SeedCoords). Parameters added after a golden grid was
	// pinned stay out of the seed derivation so the goldens survive.
	Seed bool `json:"seed"`
}

// Identities is the set of per-backend accounting invariants the verifier
// enforces on approximate-space stats. The zero value asserts only the
// backend-independent identities (non-negative counters, read-latency
// accounting, corrupted ≤ writes).
type Identities struct {
	// EnergyTracksLatency asserts WriteEnergy × PreciseWriteNanos ==
	// WriteNanos — the MLC model, where both are proportional to the P&V
	// pulse count.
	EnergyTracksLatency bool
	// PulsePerWrite asserts Iters ≥ Writes: every P&V write issues at
	// least one pulse (MLC).
	PulsePerWrite bool
	// FixedWriteLatency asserts WriteNanos == Writes × PreciseWriteNanos:
	// approximate writes save energy, not time (spintronic).
	FixedWriteLatency bool
	// EnergyPerWrite, when positive, asserts WriteEnergy == Writes ×
	// EnergyPerWrite (spintronic: 1 − Saving per write).
	EnergyPerWrite float64
	// ReadNanosPerRead, when positive, overrides the per-read latency the
	// verifier asserts for the approximate region: ReadNanos == Reads ×
	// ReadNanosPerRead. Zero keeps the default mlc.ReadNanos (the PCM
	// array read every pre-existing backend charges); the memristive
	// backend sets it to its faster ReRAM read.
	ReadNanosPerRead float64
}

// Space is the contract the unified pipeline needs from a memory space:
// allocation and accounting (mem.Space) plus stage-reset and tracing.
// Both *mem.ApproxSpace and *spintronic.Space satisfy it, as does
// *mem.PreciseSpace.
type Space interface {
	mem.Space
	// ResetStats clears the aggregate counters (between pipeline stages).
	ResetStats()
	// SetSink attaches a trace sink receiving every access.
	SetSink(mem.Sink)
}

// Compile-time seam checks: the concrete spaces satisfy the contract.
var (
	_ Space = (*mem.ApproxSpace)(nil)
	_ Space = (*mem.PreciseSpace)(nil)
)

// Backend is one approximate-memory device model. Implementations must be
// stateless values: every method must be safe for concurrent use, and all
// run state lives in the spaces they construct.
type Backend interface {
	// Name is the registry key ("pcm-mlc", "spintronic", …).
	Name() string
	// Params documents the backend's parameter schema, in display order.
	Params() []ParamSpec
	// DefaultPoint returns the backend's reference operating point (the
	// paper's sweet spot), fully parameterized.
	DefaultPoint() Point
	// Normalize fills defaulted parameters, rejects unknown names and
	// out-of-range values, and returns a fully-parameterized copy. Every
	// other Backend method requires a normalized point.
	Normalize(pt Point) (Point, error)
	// NewApprox constructs an approximate space at pt, drawing noise from
	// a stream seeded with seed. It panics on a non-normalized point
	// (programming error, mirroring the concrete constructors).
	NewApprox(pt Point, seed uint64) Space
	// NewPrecise constructs the matching precise space.
	NewPrecise() Space
	// SeedCoords returns the rng.Split coordinates that identify pt in a
	// sweep grid (the parameters whose ParamSpec.Seed is set, in schema
	// order). Grid runners key per-point streams by these, never by loop
	// index, so rows are bit-identical for any worker count.
	SeedCoords(pt Point) []any
	// SortOnlySeeds derives the (space, sort) seed pair for a sort-only
	// run from the point's stream seed. The schedules are pinned per
	// backend by the golden regression gate — they reproduce the exact
	// derivations the pre-seam pipelines used — so they must never change
	// for a registered backend.
	SortOnlySeeds(pointSeed uint64) (spaceSeed, sortSeed uint64)
	// Identities returns the accounting invariants the verifier enforces
	// on this backend's approximate-space stats at pt.
	Identities(pt Point) Identities
	// ApproxWriteNanos returns the modelled mean latency of one
	// approximate word write at pt — the device clock the sortd memory
	// system charges for the approximate region.
	ApproxWriteNanos(pt Point) float64
}

// WriteCostRatio returns ω: the ratio of the backend's modelled mean
// approximate-write latency at pt to the precise-write latency. It is the
// write-cost parameter of the (M, B, ω) external-sort cost model
// (core.PlanExternal, DESIGN.md §14): ω < 1 means approximate writes are
// cheap and run formation should lean on the approx stage; ω = 1 means
// the device clock offers no write asymmetry to exploit.
func WriteCostRatio(b Backend, pt Point) float64 {
	return b.ApproxWriteNanos(pt) / mlc.PreciseWriteNanos
}

// Resolve turns a request's backend name, parameter map and legacy t
// shorthand into a normalized point. t is the pcm-mlc half-width under its
// pre-registry name: it merges into params as "t", is rejected for other
// backends, and may not be given twice. sortd's job classes and the
// cluster coordinator's pilot resolve their operating points here.
func Resolve(name string, params map[string]float64, t float64) (Backend, Point, error) {
	b, err := Get(name)
	if err != nil {
		return nil, Point{}, err // *UnknownBackendError
	}
	pt := Point{Backend: b.Name(), Params: params}
	if t != 0 {
		if b.Name() != PCMMLC {
			return nil, Point{}, fmt.Errorf("t applies only to the %s backend; parameterize %s via params",
				PCMMLC, b.Name())
		}
		if _, dup := pt.Param("t"); dup {
			return nil, Point{}, fmt.Errorf("provide the half-width as t or params.t, not both")
		}
		pt = pt.clone()
		pt.Params["t"] = t
	}
	pt, err = b.Normalize(pt)
	if err != nil {
		return nil, Point{}, err
	}
	return b, pt, nil
}

// DefaultName is the backend assumed when a request names none: the MLC
// PCM model the paper's main body evaluates.
const DefaultName = "pcm-mlc"

// UnknownBackendError is returned by Get for names absent from the
// registry. sortd surfaces it as HTTP 400.
type UnknownBackendError struct {
	Name string
}

func (e *UnknownBackendError) Error() string {
	return fmt.Sprintf("memmodel: unknown backend %q (registered: %s)",
		e.Name, strings.Join(Names(), ", "))
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Backend)
)

// Register adds a backend under its Name. It panics on a duplicate or
// empty name (registration is an init-time programming act).
func Register(b Backend) {
	name := b.Name()
	if name == "" {
		panic("memmodel: Register with empty backend name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("memmodel: duplicate backend %q", name))
	}
	registry[name] = b
}

// Get returns the backend registered under name. The empty name resolves
// to DefaultName. Unknown names yield *UnknownBackendError.
func Get(name string) (Backend, error) {
	if name == "" {
		name = DefaultName
	}
	regMu.RLock()
	b, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, &UnknownBackendError{Name: name}
	}
	return b, nil
}

// MustGet is Get for names known at compile time; it panics on unknown
// names.
func MustGet(name string) Backend {
	b, err := Get(name)
	if err != nil {
		panic(err)
	}
	return b
}

// Names returns the registered backend names, sorted.
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
