package rng

import "testing"

// refXoshiro is an independent xoshiro256** (Blackman & Vigna's reference
// C code, transcribed) seeded the way Reseed documents: four successive
// splitmix64 outputs. It shares no code with the package, so a change to
// Source's or Stream's state layout that alters the stream shows up here
// rather than as a drift in every golden row downstream.
type refXoshiro [4]uint64

func newRefXoshiro(seed uint64) *refXoshiro {
	var x refXoshiro
	for i := range x {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x[i] = z ^ (z >> 31)
	}
	return &x
}

func (x *refXoshiro) next() uint64 {
	rot := func(v uint64, k uint) uint64 { return v<<k | v>>(64-k) }
	result := rot(x[1]*5, 7) * 9
	t := x[1] << 17
	x[2] ^= x[0]
	x[3] ^= x[1]
	x[1] ^= x[2]
	x[0] ^= x[3]
	x[2] ^= t
	x[3] = rot(x[3], 45)
	return result
}

// TestKnownAnswers pins the first outputs of New(0), New(42) and the
// Split child of New(42) to literal values and to the reference
// generator.
func TestKnownAnswers(t *testing.T) {
	cases := []struct {
		name string
		src  *Source
		ref  *refXoshiro
		want []uint64
	}{
		{"New(0)", New(0), newRefXoshiro(0), []uint64{
			0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c}},
		{"New(42)", New(42), newRefXoshiro(42), []uint64{
			0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1}},
		{"New(42).Split()", New(42).Split(),
			newRefXoshiro(newRefXoshiro(42).next() ^ 0xd1b54a32d192ed03), []uint64{
				0x1d83045b89175963, 0xa4af141f0366261e, 0xe3b2d7669cf5b2df, 0xeb5bedf00ff55acb}},
	}
	for _, c := range cases {
		for i := 0; i < 1000; i++ {
			got, ref := c.src.Uint64(), c.ref.next()
			if got != ref {
				t.Fatalf("%s draw %d: Uint64 = %#x, reference xoshiro256** = %#x", c.name, i, got, ref)
			}
			if i < len(c.want) && got != c.want[i] {
				t.Fatalf("%s draw %d: Uint64 = %#x, pinned %#x", c.name, i, got, c.want[i])
			}
		}
	}
}

// catchUp advances s by Next until it equals want, returning how many
// draws that took, or -1 if it does not within limit draws.
func catchUp(s, want Stream, limit int) (Stream, int) {
	for n := 0; n <= limit; n++ {
		if s == want {
			return s, n
		}
		_, s = s.Next()
	}
	return s, -1
}

// TestStreamMatchesSource checks that threading a Stream by value through
// Next reproduces Source.Uint64 exactly, and that the Stream embedded in
// a Source is the whole generator state: Reseed replaces it (and drops
// the Norm spare), and Norm's spare variate is served without a draw.
func TestStreamMatchesSource(t *testing.T) {
	r := New(7)
	s := r.Stream
	for i := 0; i < 1000; i++ {
		var v uint64
		v, s = s.Next()
		if got := r.Uint64(); got != v {
			t.Fatalf("draw %d: Source.Uint64 = %#x, Stream.Next = %#x", i, got, v)
		}
	}
	if s != r.Stream {
		t.Fatal("Stream state diverged from the Source's after 1000 draws")
	}

	// Norm draws an even number of uniforms (the polar method's rejection
	// loop) on a fresh pair and none when it serves the cached spare.
	for i := 0; i < 100; i++ {
		r.Norm()
		var n int
		if s, n = catchUp(s, r.Stream, 1000); n < 2 || n%2 != 0 {
			t.Fatalf("Norm pair %d consumed %d draws, want a positive even count", i, n)
		}
		r.Norm()
		if r.Stream != s {
			t.Fatalf("Norm pair %d: the spare variate advanced the stream", i)
		}
	}

	// Reseed with a spare pending: the state is exactly New's, and the
	// spare is gone, so the next Norm matches a fresh source's.
	r.Norm()
	r.Reseed(99)
	fresh := New(99)
	if r.Stream != fresh.Stream {
		t.Fatal("Reseed(99) state differs from New(99)")
	}
	if a, b := r.Norm(), fresh.Norm(); a != b {
		t.Fatalf("Norm after Reseed = %v, fresh source = %v (stale spare?)", a, b)
	}
	s = r.Stream
	for i := 0; i < 100; i++ {
		var v uint64
		v, s = s.Next()
		if got := r.Uint64(); got != v {
			t.Fatalf("after Reseed, draw %d: Source.Uint64 = %#x, Stream.Next = %#x", i, got, v)
		}
	}
}
