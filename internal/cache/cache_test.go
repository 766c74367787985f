package cache

import (
	"testing"

	"approxsort/internal/rng"
)

func TestGeometry(t *testing.T) {
	c := New(32<<10, 8)
	if c.Sets() != 64 || c.Ways() != 8 {
		t.Errorf("32KB 8-way: sets=%d ways=%d, want 64/8", c.Sets(), c.Ways())
	}
}

func TestGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry accepted")
		}
	}()
	New(1000, 3) // not divisible by ways*line
}

func TestGeometryRejectsNonPowerOfTwoSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("3-set cache accepted")
		}
	}()
	New(3*2*LineBytes, 2)
}

// sliceLRU is the per-set slice LRU the flat tag array replaced: each set
// a slice of tags, most- to least-recently used, with division-based set
// mapping. It is the oracle for the flat cache.
type sliceLRU struct {
	ways int
	tags [][]uint64
}

func newSliceLRU(sizeBytes, ways int) *sliceLRU {
	return &sliceLRU{ways: ways, tags: make([][]uint64, sizeBytes/(ways*LineBytes))}
}

func (c *sliceLRU) lookup(addr uint64, allocate bool) bool {
	line := addr / LineBytes
	si, tag := line%uint64(len(c.tags)), line/uint64(len(c.tags))
	set := c.tags[si]
	for i, t := range set {
		if t == tag {
			copy(set[1:i+1], set[:i])
			set[0] = tag
			return true
		}
	}
	if allocate {
		if len(set) < c.ways {
			set = append(set, 0)
		}
		copy(set[1:], set)
		set[0] = tag
		c.tags[si] = set
	}
	return false
}

// TestFlatCacheMatchesSliceLRU drives the flat cache and the slice LRU
// with the same random Access/Touch stream at every Table 1 geometry and
// a few small ones, comparing each hit/miss outcome.
func TestFlatCacheMatchesSliceLRU(t *testing.T) {
	for _, g := range []struct{ size, ways int }{
		{32 << 10, 8}, {2 << 20, 4}, {32 << 20, 8}, {LineBytes, 1}, {4 * LineBytes, 4}, {4096, 2},
	} {
		c, ref := New(g.size, g.ways), newSliceLRU(g.size, g.ways)
		r := rng.New(uint64(g.size + g.ways))
		span := 4 * g.size // a working set that hits and evicts
		var hits uint64
		for i := 0; i < 200000; i++ {
			addr := uint64(r.Intn(span))
			if r.Bernoulli(0.3) {
				if got, want := c.Touch(addr), ref.lookup(addr, false); got != want {
					t.Fatalf("%d/%d-way op %d Touch(%#x) = %v, oracle %v", g.size, g.ways, i, addr, got, want)
				}
				continue
			}
			got, want := c.Access(addr), ref.lookup(addr, true)
			if got != want {
				t.Fatalf("%d/%d-way op %d Access(%#x) = %v, oracle %v", g.size, g.ways, i, addr, got, want)
			}
			if got {
				hits++
			}
		}
		if c.Hits() != hits || hits == 0 {
			t.Errorf("%d/%d-way: Hits() = %d, counted %d", g.size, g.ways, c.Hits(), hits)
		}
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := New(4096, 2)
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("second access missed")
	}
	if !c.Access(63) {
		t.Error("same-line access missed")
	}
	if c.Access(64) {
		t.Error("next-line access hit")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache: two lines in a set survive, a third evicts the LRU.
	c := New(2*LineBytes, 2) // 1 set, 2 ways
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU
	c.Access(d) // evicts b (LRU)
	if !c.Access(a) {
		t.Error("a evicted despite being MRU")
	}
	if c.Access(b) {
		t.Error("b survived eviction")
	}
}

func TestTouchDoesNotAllocate(t *testing.T) {
	c := New(4096, 4)
	if c.Touch(0) {
		t.Error("Touch hit a cold cache")
	}
	if c.Access(0) {
		t.Error("Touch must not have allocated")
	}
	if !c.Touch(0) {
		t.Error("Touch missed a resident line")
	}
}

func TestTouchRefreshesRecency(t *testing.T) {
	c := New(2*LineBytes, 2)
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.Access(a)
	c.Access(b) // order: b, a (a is LRU)
	c.Touch(a)  // order: a, b
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Error("touched line was evicted")
	}
}

func TestSetMapping(t *testing.T) {
	c := New(4096, 1) // 64 direct-mapped sets
	// Addresses one set apart must not conflict; addresses sets*line
	// apart must conflict.
	c.Access(0)
	c.Access(64)
	if !c.Access(0) {
		t.Error("different sets conflicted")
	}
	c.Access(64 * 64) // same set as 0 in a direct-mapped cache
	if c.Access(0) {
		t.Error("conflicting line did not evict in direct-mapped cache")
	}
}

func TestHierarchyInclusionPath(t *testing.T) {
	h := NewHierarchy()
	level, nanos := h.Read(0)
	if level != 0 {
		t.Fatalf("cold read hit level %d", level)
	}
	if nanos != L1Nanos+L2Nanos+L3Nanos {
		t.Errorf("cold read traversal = %v ns", nanos)
	}
	level, nanos = h.Read(0)
	if level != 1 || nanos != L1Nanos {
		t.Errorf("warm read: level=%d nanos=%v, want L1 hit", level, nanos)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := NewHierarchy()
	h.Read(0)
	// Blow L1 (32 KB) with a 64 KB sweep, leaving L2 resident.
	for a := uint64(4096); a < 4096+64<<10; a += LineBytes {
		h.Read(a)
	}
	level, _ := h.Read(0)
	if level != 2 {
		t.Errorf("expected L2 hit after L1 flush, got level %d", level)
	}
}

func TestHierarchyWriteThrough(t *testing.T) {
	h := NewHierarchy()
	// A store to a cold line must not allocate it.
	h.Write(0)
	if level, _ := h.Read(0); level != 0 {
		t.Errorf("write allocated a line: read hit level %d", level)
	}
}

func BenchmarkHierarchyRead(b *testing.B) {
	h := NewHierarchy()
	for i := 0; i < b.N; i++ {
		h.Read(uint64(i*64) % (8 << 20))
	}
}
