// Package rng provides a small, fast, deterministic random number
// generator used by every Monte-Carlo component of the simulator.
//
// The generator is xoshiro256** seeded through splitmix64, the combination
// recommended by Blackman and Vigna. It is not safe for concurrent use; each
// goroutine should own its own Source (see Split).
//
// math/rand is avoided on purpose: the simulator draws billions of variates
// and the global-lock and interface costs of math/rand dominate at that
// scale, and we want stable streams that do not depend on the Go release.
package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Stream is the bare xoshiro256** state as a value. Next returns the
// advanced state rather than mutating it, so a hot loop that threads a
// Stream through local variables keeps all four words in registers:
// four uint64 fields is the largest struct Go's SSA backend decomposes,
// while the whole Source (with its Norm spare) stays in memory and turns
// every draw into a store-to-load chain through the stack.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// Next returns the stream's next 64-bit output and the advanced state.
// The body is the reference xoshiro256** step (s2 ^= s0; s3 ^= s1;
// s1 ^= s2; s0 ^= s3; s2 ^= s1<<17; s3 = rotl(s3, 45)) written in
// single-assignment form, which keeps Source.Uint64 within the
// compiler's inlining budget.
func (s Stream) Next() (uint64, Stream) {
	s2 := s.s2 ^ s.s0
	s3 := s.s3 ^ s.s1
	return bits.RotateLeft64(s.s1*5, 7) * 9,
		Stream{s.s0 ^ s3, s.s1 ^ s2, s2 ^ s.s1<<17, bits.RotateLeft64(s3, 45)}
}

// Source is a deterministic pseudo-random number source. Its embedded
// Stream is the generator state: a hot loop may copy it out, draw with
// Stream.Next, and store it back, consuming exactly the values Uint64
// would have returned. Next promoted onto a Source leaves the Source
// where it was; Uint64 is the advancing draw. The zero value is not
// valid; use New.
type Source struct {
	Stream
	// spare holds a cached standard normal variate produced by the polar
	// method, which generates two at a time.
	spare    float64
	hasSpare bool
}

// New returns a Source seeded from seed. Distinct seeds give independent
// streams for all practical purposes.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed reinitializes the source from seed, discarding all state.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	// xoshiro must not start in the all-zero state. splitmix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
	r.hasSpare = false
}

// Split returns a new Source whose stream is independent of r's, suitable
// for handing to another goroutine.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// splitmix is the splitmix64 finalizer, the mixing primitive behind both
// Reseed and Split.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Split derives the seed of an independent child stream from a base seed
// and a tuple of coordinates. It is the seeding contract of every sweep in
// the repository: a grid point's stream is keyed by the point's
// coordinates (algorithm name, T, n, distribution …), never by its
// position in a flattened loop, so adding, removing or reordering grid
// entries leaves every other point's numbers untouched, and parallel and
// sequential sweeps are bit-identical.
//
// Coordinates may be string, int, uint64, float64 or bool; each is mixed
// under a type tag, so Split(s, 1) and Split(s, 1.0) differ and string
// tuples cannot collide by concatenation. Any other type panics: a
// coordinate the caller cannot name stably has no place in a seed.
func Split(base uint64, coords ...any) uint64 {
	h := splitmix(base ^ 0x6a09e667f3bcc909)
	for _, c := range coords {
		switch v := c.(type) {
		case string:
			h = splitmix(h ^ 0x737472) // "str"
			for i := 0; i < len(v); i++ {
				h = splitmix(h ^ uint64(v[i]))
			}
			h = splitmix(h ^ uint64(len(v)))
		case int:
			h = splitmix(h ^ 0x696e74) // "int"
			h = splitmix(h ^ uint64(v))
		case uint64:
			h = splitmix(h ^ 0x753634) // "u64"
			h = splitmix(h ^ v)
		case float64:
			h = splitmix(h ^ 0x663634) // "f64"
			h = splitmix(h ^ math.Float64bits(v))
		case bool:
			h = splitmix(h ^ 0x626f6f) // "boo"
			if v {
				h = splitmix(h ^ 1)
			} else {
				h = splitmix(h)
			}
		default:
			panic(fmt.Sprintf("rng: Split coordinate of unsupported type %T", c))
		}
	}
	return splitmix(h)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Source) Uint64() uint64 {
	v, s := r.Stream.Next()
	r.Stream = s
	return v
}

// Uint32 returns a uniformly distributed 32-bit value.
func (r *Source) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, 64-bit variant.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Norm returns a standard normal variate (mean 0, standard deviation 1)
// using the Marsaglia polar method.
func (r *Source) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// NormAt returns a normal variate with the given mean and standard
// deviation.
func (r *Source) NormAt(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Perm fills out with a uniformly random permutation of [0, len(out)).
func (r *Source) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

// Shuffle randomizes the order of n elements using the provided swap
// function, mirroring math/rand.Shuffle.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
