// Package cache implements the write-through cache hierarchy of the
// paper's simulator (Table 1): 32 KB L1, 2 MB 4-way L2, 32 MB 8-way L3
// with 10 ns access latency, all LRU with 64-byte lines. Write-through
// means every data write proceeds to main memory; the hierarchy only
// filters reads, which is the modelling assumption the paper's
// write-latency accounting rests on (Section 3.2).
package cache

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache line size used throughout (64 B).
const LineBytes = 64

// Cache is one set-associative, LRU, write-through cache level.
//
// The tag store is one flat array of sets×ways entries. Each set's row
// holds its fill[set] resident tags ordered most- to least-recently used,
// so the MRU way is probed first and an MRU hit moves nothing. Every
// Table 1 level has a power-of-two set count, so the set index and tag
// are a mask and a shift of the line number.
type Cache struct {
	ways    int
	sets    int
	setMask uint64
	setBits uint
	tags    []uint64 // tags[set*ways : set*ways+fill[set]], MRU first
	fill    []uint8
	hits    uint64
	misses  uint64
}

// New returns a cache of the given total size and associativity with
// 64-byte lines. It panics if the geometry is inconsistent or the set
// count is not a power of two (programming error).
func New(sizeBytes, ways int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || ways > 255 || sizeBytes%(ways*LineBytes) != 0 {
		panic(fmt.Sprintf("cache: bad geometry size=%d ways=%d", sizeBytes, ways))
	}
	sets := sizeBytes / (ways * LineBytes)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a power of two (size=%d ways=%d)", sets, sizeBytes, ways))
	}
	return &Cache{
		ways:    ways,
		sets:    sets,
		setMask: uint64(sets - 1),
		setBits: uint(bits.TrailingZeros(uint(sets))),
		tags:    make([]uint64, sets*ways),
		fill:    make([]uint8, sets),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// row returns addr's set index, its resident tags (MRU first) and addr's
// tag.
func (c *Cache) row(addr uint64) (int, []uint64, uint64) {
	line := addr / LineBytes
	si := int(line & c.setMask)
	base := si * c.ways
	return si, c.tags[base : base+int(c.fill[si]) : base+c.ways], line >> c.setBits
}

// promote moves the tag at way i of row to the MRU way.
func promote(row []uint64, i int) {
	tag := row[i]
	copy(row[1:i+1], row[:i])
	row[0] = tag
}

// Access looks up addr, allocating the line (and evicting LRU) on a miss.
// It returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	si, row, tag := c.row(addr)
	if len(row) > 0 && row[0] == tag {
		c.hits++
		return true
	}
	for i := 1; i < len(row); i++ {
		if row[i] == tag {
			promote(row, i)
			c.hits++
			return true
		}
	}
	c.misses++
	if len(row) < c.ways {
		row = row[:len(row)+1]
		c.fill[si]++
	}
	copy(row[1:], row[:len(row)-1])
	row[0] = tag
	return false
}

// Touch updates the line's recency if present but does not allocate — the
// write-through, no-write-allocate policy for stores.
func (c *Cache) Touch(addr uint64) bool {
	_, row, tag := c.row(addr)
	for i, t := range row {
		if t == tag {
			if i > 0 {
				promote(row, i)
			}
			return true
		}
	}
	return false
}

// Hits returns the hit count.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the miss count.
func (c *Cache) Misses() uint64 { return c.misses }

// Level access latencies. Table 1 specifies only the L3 latency (10 ns);
// the L1/L2 values are the conventional magnitudes for those sizes and
// only matter for the total-access-time metric, never for write latency.
const (
	L1Nanos = 1.0
	L2Nanos = 4.0
	L3Nanos = 10.0
)

// Hierarchy is the three-level write-through hierarchy of Table 1.
type Hierarchy struct {
	L1, L2, L3 *Cache
}

// NewHierarchy returns the Table 1 configuration: 32 KB 8-way L1,
// 2 MB 4-way L2, 32 MB 8-way L3.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{
		L1: New(32<<10, 8),
		L2: New(2<<20, 4),
		L3: New(32<<20, 8),
	}
}

// Read services a load: it returns the level that hit (1–3) and the
// accumulated latency, or level 0 when the access misses everywhere and
// must go to memory (the returned latency then counts the traversal cost
// of all three levels).
func (h *Hierarchy) Read(addr uint64) (level int, nanos float64) {
	if h.L1.Access(addr) {
		return 1, L1Nanos
	}
	if h.L2.Access(addr) {
		return 2, L1Nanos + L2Nanos
	}
	if h.L3.Access(addr) {
		return 3, L1Nanos + L2Nanos + L3Nanos
	}
	return 0, L1Nanos + L2Nanos + L3Nanos
}

// ReadAgain records k further loads of the line the preceding Read
// resolved, with no access in between. That Read left the line as L1's
// MRU way (a hit promotes it, a miss allocates it there), so each
// repeat is an L1 hit that reorders nothing: only the hit count moves.
func (h *Hierarchy) ReadAgain(k uint64) { h.L1.hits += k }

// Write services a store under write-through/no-write-allocate: present
// lines refresh their recency, nothing is allocated, and the store always
// proceeds to memory (the caller forwards it to the PCM simulator).
func (h *Hierarchy) Write(addr uint64) {
	h.L1.Touch(addr)
	h.L2.Touch(addr)
	h.L3.Touch(addr)
}
