// Package cache implements the last-level cache model that feeds the NVM
// memory system: a set-associative write-back, write-allocate cache with
// true LRU replacement, per-LRU-stack-position hit counters, and the dirty
// line scanning needed by Eager Mellow Writes (§3.1).
//
// The eager-writeback rule of the paper: "If the highest N LRU stack
// positions of the last level cache contribute less than 1/eager_threshold
// of total hits in LLC, then we consider these N LRU stack positions to be
// useless and their corresponding LLC dirty entries can be eagerly written
// back." UselessPositions computes that N; NextEagerVictim yields dirty
// lines resident in those positions.
//
// Layout: the tag lane is one flat []uint64 indexed set*ways+pos, each set
// ordered MRU..LRU. Valid and dirty state is two per-set bit masks over LRU
// stack positions, valid[set] and dirty[set]: bit p stands for the line at
// position p (0 = MRU), so associativity is capped at 64. The probe and the
// LRU shift touch the tag lane plus two words of mask arithmetic, and the
// eager-victim test of a set is one masked load: the victim is the lowest
// dirty position among the uselessN least-recently-used ones.
package cache

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache-line size in bytes.
const LineBytes = 64

// maxWays is the largest supported associativity: one bit per way in the
// per-set valid/dirty masks.
const maxWays = 64

// Stats aggregates cache event counters.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Writebacks  uint64 // dirty evictions sent to memory
	EagerWrites uint64 // eager writebacks issued
	// HitsByPos counts hits by LRU stack position (0 = MRU).
	HitsByPos []uint64
}

// Cache is a set-associative write-back LLC. It is not safe for concurrent
// use.
type Cache struct {
	// tags[set*ways+pos] is the tag of the line at LRU stack position pos
	// of that set (0 = MRU). Bit pos of valid[set] and dirty[set] is that
	// line's state; dirty implies valid.
	tags     []uint64
	valid    []uint64
	dirty    []uint64
	setCount int
	ways     int
	// wayMask has the low ways bits set: the positions a set mask can use.
	wayMask uint64
	setMask uint64
	// setShift is log2(setCount), hoisted at construction so the per-access
	// locate/reconstruct pair shifts by a constant instead of recounting
	// bits.
	setShift uint
	stats    Stats

	// eagerCursor remembers where the eager-victim scan left off so
	// repeated scans cover the whole cache round-robin.
	eagerCursor int
}

// ValidateGeometry reports whether New accepts a cache of sizeBytes
// capacity and the given associativity: sizeBytes must be a positive
// multiple of ways*LineBytes and yield a power-of-two set count, and ways
// must be in [1, maxWays].
func ValidateGeometry(sizeBytes, ways int) error {
	if sizeBytes <= 0 || ways <= 0 || ways > maxWays {
		return fmt.Errorf("cache: invalid size %d / ways %d (ways must be in [1,%d])", sizeBytes, ways, maxWays)
	}
	lines := sizeBytes / LineBytes
	if lines*LineBytes != sizeBytes || lines%ways != 0 {
		return fmt.Errorf("cache: size %d not divisible into %d-way sets of %d-byte lines", sizeBytes, ways, LineBytes)
	}
	if setCount := lines / ways; setCount&(setCount-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", setCount)
	}
	return nil
}

// New constructs a cache of sizeBytes capacity with the given associativity
// (see ValidateGeometry).
func New(sizeBytes, ways int) (*Cache, error) {
	if err := ValidateGeometry(sizeBytes, ways); err != nil {
		return nil, err
	}
	setCount := sizeBytes / LineBytes / ways
	c := &Cache{
		tags:     make([]uint64, setCount*ways),
		valid:    make([]uint64, setCount),
		dirty:    make([]uint64, setCount),
		setCount: setCount,
		ways:     ways,
		wayMask:  ^uint64(0) >> (maxWays - ways),
		setMask:  uint64(setCount - 1),
		setShift: uint(log2(setCount)),
	}
	c.stats.HitsByPos = make([]uint64, ways)
	return c, nil
}

// Name identifies the cache as the front tier of the memory hierarchy
// (hierarchy.Tier).
func (c *Cache) Name() string { return "llc" }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.HitsByPos = append([]uint64(nil), c.stats.HitsByPos...)
	return s
}

func (c *Cache) locate(addr uint64) (setIdx int, tag uint64) {
	lineAddr := addr / LineBytes
	return int(lineAddr & c.setMask), lineAddr >> c.setShift //mctlint:ignore cyclecast masked value is bounded by the set count
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// Result describes the memory-side consequences of one cache access.
type Result struct {
	Hit bool
	// Miss fill: the line address fetched from memory (valid when !Hit).
	FillAddr uint64
	// Writeback reports a dirty eviction; WritebackAddr is its line-aligned
	// byte address.
	Writeback     bool
	WritebackAddr uint64
}

// Access performs a load (write=false) or store (write=true) at addr and
// returns what the memory system must do: nothing (hit), a fill (read
// miss), and possibly a dirty writeback (victim eviction). It is on the
// simulator's per-access hot path: the probe walks the set's tag lane
// against its valid mask, and the LRU shift moves the tags with one copy
// and each mask with a few shifts.
func (c *Cache) Access(addr uint64, write bool) Result {
	setIdx, tag := c.locate(addr)
	base := setIdx * c.ways
	tags := c.tags[base : base+c.ways]
	valid, dirty := c.valid[setIdx], c.dirty[setIdx]
	var bit uint64
	if write {
		bit = 1
	}

	for pos := range tags {
		if tags[pos] == tag && valid>>pos&1 != 0 {
			c.stats.Hits++
			c.stats.HitsByPos[pos]++
			// Move to MRU: positions 0..pos-1 shift down one, position pos
			// lands at 0, positions above pos stay.
			below := uint64(1)<<pos - 1
			keep := ^(uint64(2)<<pos - 1)
			c.valid[setIdx] = valid&keep | (valid&below)<<1 | 1
			c.dirty[setIdx] = dirty&keep | (dirty&below)<<1 | bit | dirty>>pos&1
			copy(tags[1:pos+1], tags[:pos])
			tags[0] = tag
			return Result{Hit: true}
		}
	}

	// Miss: evict LRU (last position), fill at MRU.
	c.stats.Misses++
	res := Result{FillAddr: addr &^ uint64(LineBytes-1)}
	last := c.ways - 1
	if (valid&dirty)>>last&1 != 0 {
		c.stats.Writebacks++
		res.Writeback = true
		res.WritebackAddr = c.reconstruct(setIdx, tags[last])
	}
	copy(tags[1:], tags[:last])
	tags[0] = tag
	c.valid[setIdx] = (valid<<1 | 1) & c.wayMask
	c.dirty[setIdx] = (dirty<<1 | bit) & c.wayMask
	return res
}

func (c *Cache) reconstruct(setIdx int, tag uint64) uint64 {
	return (tag<<c.setShift | uint64(setIdx)) * LineBytes
}

// UselessPositions returns how many LRU stack positions (from the
// least-recently-used end) are considered useless for eager writeback: the
// positions outside the minimal MRU prefix that accumulates at least
// 1/eagerThreshold of all hits. A larger eagerThreshold shrinks the
// protected prefix, classifying more positions as useless — more eager
// writebacks, higher performance, shorter lifetime, matching the
// aggressiveness direction stated in §3.1. With no hits at all every
// position is useless.
func (c *Cache) UselessPositions(eagerThreshold int) int {
	if eagerThreshold <= 0 {
		return 0
	}
	total := c.stats.Hits // == ΣHitsByPos, kept so by Access and FromSnapshot
	if total == 0 {
		return c.ways
	}
	need := float64(total) / float64(eagerThreshold)
	var cum uint64
	protected := 0
	for pos := 0; pos < c.ways; pos++ {
		protected++
		cum += c.stats.HitsByPos[pos]
		if float64(cum) >= need {
			break
		}
	}
	return c.ways - protected
}

// NextEagerVictim scans up to maxSets sets (round-robin from where the last
// scan stopped) for a dirty line residing in one of the uselessN
// least-recently-used positions. If found, the line is marked clean (its
// data is now considered written back — a later store re-dirties it, making
// the eager write wasted wear, as in the paper), and its address is
// returned; the cursor stops one past that set. Each set costs one load of
// its dirty mask: the victim is the lowest dirty position in range, the one
// nearest the MRU end.
func (c *Cache) NextEagerVictim(uselessN, maxSets int) (addr uint64, ok bool) {
	if uselessN <= 0 {
		return 0, false
	}
	if uselessN > c.ways {
		uselessN = c.ways
	}
	if maxSets <= 0 || maxSets > c.setCount {
		maxSets = c.setCount
	}
	useMask := c.wayMask &^ (c.wayMask >> uselessN)
	for scanned := 0; scanned < maxSets; scanned++ {
		setIdx := c.eagerCursor
		c.eagerCursor = (setIdx + 1) & (c.setCount - 1)
		if m := c.dirty[setIdx] & useMask; m != 0 {
			pos := bits.TrailingZeros64(m)
			c.dirty[setIdx] &^= 1 << pos
			c.stats.EagerWrites++
			return c.reconstruct(setIdx, c.tags[setIdx*c.ways+pos]), true
		}
	}
	return 0, false
}

// Clone returns a deep copy of the cache — contents, statistics and scan
// cursor. Cloning a warmed cache lets many configuration evaluations share
// one warmup (cache state does not depend on the NVM configuration).
func (c *Cache) Clone() *Cache {
	n := &Cache{
		tags:        append([]uint64(nil), c.tags...),
		valid:       append([]uint64(nil), c.valid...),
		dirty:       append([]uint64(nil), c.dirty...),
		setCount:    c.setCount,
		ways:        c.ways,
		wayMask:     c.wayMask,
		setMask:     c.setMask,
		setShift:    c.setShift,
		eagerCursor: c.eagerCursor,
	}
	n.stats = c.stats
	n.stats.HitsByPos = append([]uint64(nil), c.stats.HitsByPos...)
	return n
}
