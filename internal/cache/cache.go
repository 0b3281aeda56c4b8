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
// ordered MRU..LRU. Valid and dirty state is per-set bit masks over LRU
// stack positions, valid[set] and, per lane k, dirty[set*lanes+k]: bit p
// stands for the line at position p (0 = MRU), so associativity is capped
// at 64. The probe and the LRU shift touch the tag lane plus a word of mask
// arithmetic per mask, and the eager-victim test of a set is one masked
// load: the victim is the lowest dirty position among the uselessN
// least-recently-used ones.
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
//
// A cache carries one or more lanes. Tags, valid masks, LRU order and the
// hit histogram evolve the same way whatever a configuration does with the
// lines' data, so they are shared; a lane holds what depends on the
// configuration: the dirty masks (an eager harvest cleans lines), the eager
// cursor and the writeback counters. New builds one lane; Fork copies lane
// 0 into k lanes that then step in lockstep: Access steps the shared state
// and settles lane 0, then each further lane Settles the same access.
// NextEagerVictim and Stats are lane 0's LaneEagerVictim and LaneStats.
type Cache struct {
	// tags[set*ways+pos] is the tag of the line at LRU stack position pos
	// of that set (0 = MRU). Bit pos of valid[set] is that line's state.
	tags  []uint64
	valid []uint64
	// dirty[set*len(lanes)+k] is lane k's dirty mask of set: set-major,
	// lane-minor, so the fan-out of one access to up to 8 lanes touches one
	// 64-byte line. Dirty implies valid.
	dirty []uint64
	lanes []lane

	setCount int
	ways     int
	// wayMask has the low ways bits set: the positions a set mask can use.
	wayMask uint64
	setMask uint64
	// setShift is log2(setCount), hoisted at construction so the per-access
	// locate/reconstruct pair shifts by a constant instead of recounting
	// bits.
	setShift uint

	hits, misses uint64
	hitsByPos    []uint64

	// last is the outcome of the latest Access, which each further lane's
	// Settle applies.
	last probe
}

// lane is the configuration-dependent state of one lane besides its dirty
// masks.
type lane struct {
	// eagerCursor remembers where the eager-victim scan left off so
	// repeated scans cover the whole cache round-robin.
	eagerCursor int
	writebacks  uint64
	eagerWrites uint64
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
	return &Cache{
		tags:      make([]uint64, setCount*ways),
		valid:     make([]uint64, setCount),
		dirty:     make([]uint64, setCount),
		lanes:     make([]lane, 1),
		setCount:  setCount,
		ways:      ways,
		wayMask:   ^uint64(0) >> (maxWays - ways),
		setMask:   uint64(setCount - 1),
		setShift:  uint(log2(setCount)),
		hitsByPos: make([]uint64, ways),
	}, nil
}

// Name identifies the cache as the front tier of the memory hierarchy
// (hierarchy.Tier).
func (c *Cache) Name() string { return "llc" }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Stats returns a snapshot of lane 0's counters.
func (c *Cache) Stats() Stats { return c.LaneStats(0) }

// LaneStats returns a snapshot of lane k's counters; the hit and miss
// counts and the histogram are shared by every lane.
func (c *Cache) LaneStats(k int) Stats {
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Writebacks:  c.lanes[k].writebacks,
		EagerWrites: c.lanes[k].eagerWrites,
		HitsByPos:   append([]uint64(nil), c.hitsByPos...),
	}
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

// probe is the lane-independent outcome of the last Access, kept for the
// further lanes' Settle calls.
type probe struct {
	set int
	pos uint // hit position, or the LRU position on a miss
	hit bool
	// evict is the victim's position bit on a miss that evicts a valid
	// line, else 0: a lane whose dirty mask has it writes the victim back.
	evict uint64
	// fillAddr and victimAddr are the line addresses of the miss fill and
	// of the line leaving the LRU position, rebuilt before the tag shift.
	fillAddr, victimAddr uint64
}

// lruShift moves position pos of a set mask to MRU: positions 0..pos-1
// shift down one, positions above pos stay, and bit 0 becomes mru. On a
// miss (pos = ways-1) the LRU bit falls off the set.
func lruShift(m uint64, pos uint, mru uint64) uint64 {
	below := uint64(1)<<pos - 1
	return m&^(below<<1|1) | (m&below)<<1 | mru
}

// Access performs a load (write=false) or store (write=true) at addr and
// returns what the memory system must do: nothing (hit), a fill (read
// miss), and possibly a dirty writeback (victim eviction). It is Probe,
// then Settle on lane 0, whose Result it returns; every further lane must
// Settle the access before the next one.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.Probe(addr)
	return c.Settle(0, write)
}

// Probe moves the line at addr to MRU in the shared state — the tag lane,
// the valid mask and the hit counters — and keeps the outcome for every
// lane's Settle. It is on the simulator's per-access hot path: the probe
// walks the set's tag lane against its valid mask, and the LRU shift moves
// the tags with one copy and each mask with a few shifts.
func (c *Cache) Probe(addr uint64) {
	setIdx, tag := c.locate(addr)
	base := setIdx * c.ways
	tags := c.tags[base : base+c.ways]
	valid := c.valid[setIdx]
	p := &c.last
	p.set = setIdx

	for i := range tags {
		if tags[i] == tag && valid>>i&1 != 0 {
			pos := uint(i)
			p.pos, p.hit = pos, true
			c.hits++
			c.hitsByPos[pos]++
			c.valid[setIdx] = lruShift(valid, pos, 1)
			copy(tags[1:pos+1], tags[:pos])
			tags[0] = tag
			return
		}
	}

	// Miss: evict LRU (last position), fill at MRU.
	last := uint(c.ways - 1)
	c.misses++
	p.pos, p.hit = last, false
	p.evict = valid & (1 << last)
	p.fillAddr = addr &^ uint64(LineBytes-1)
	p.victimAddr = c.reconstruct(setIdx, tags[last])
	c.valid[setIdx] = lruShift(valid, last, 1)
	copy(tags[1:], tags[:last])
	tags[0] = tag
}

// Settle applies the last Probe to lane k: its dirty mask follows the
// LRU shift (a store dirties the line at MRU), and on a miss the victim is
// written back if the lane holds it dirty. Access settles lane 0 itself.
func (c *Cache) Settle(k int, write bool) Result {
	p := &c.last
	d := &c.dirty[p.set*len(c.lanes)+k]
	dirty := *d
	var mru uint64
	if write {
		mru = 1
	}
	if p.hit {
		// The line keeps its dirty bit as it moves to MRU.
		*d = lruShift(dirty, p.pos, mru|dirty>>p.pos&1)
		return Result{Hit: true}
	}
	*d = lruShift(dirty, p.pos, mru)
	res := Result{FillAddr: p.fillAddr}
	if dirty&p.evict != 0 {
		c.lanes[k].writebacks++
		res.Writeback = true
		res.WritebackAddr = p.victimAddr
	}
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
	total := c.hits // == ΣhitsByPos, kept so by Access and FromSnapshot
	if total == 0 {
		return c.ways
	}
	need := float64(total) / float64(eagerThreshold)
	var cum uint64
	protected := 0
	for pos := 0; pos < c.ways; pos++ {
		protected++
		cum += c.hitsByPos[pos]
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
// nearest the MRU end. It is LaneEagerVictim on lane 0.
func (c *Cache) NextEagerVictim(uselessN, maxSets int) (addr uint64, ok bool) {
	return c.LaneEagerVictim(0, uselessN, maxSets)
}

// LaneMark is a lane's state before the last Probe settled on it: its
// cursor and counters, and its dirty mask of the probed set.
type LaneMark struct {
	lane  lane
	dirty uint64
}

// MarkLane records lane k's state for CopyLane; call it after Probe and
// before Settle(k).
func (c *Cache) MarkLane(k int) LaneMark {
	return LaneMark{lane: c.lanes[k], dirty: c.dirty[c.last.set*len(c.lanes)+k]}
}

// CopyLane makes lane dst a copy of lane src as it stood at mark, before
// the last Probe settled on src: src's dirty masks, with the eager victim
// src harvested since (victim, when harvested) dirty again and the probed
// set's mask rewound, and mark's cursor and counters. Tags have not moved
// since the Probe, so the victim is still resident.
func (c *Cache) CopyLane(dst, src int, mark LaneMark, victim uint64, harvested bool) {
	nl := len(c.lanes)
	for s := 0; s < c.setCount; s++ {
		c.dirty[s*nl+dst] = c.dirty[s*nl+src]
	}
	if harvested {
		set, tag := c.locate(victim)
		tags := c.tags[set*c.ways : (set+1)*c.ways]
		for pos := range tags {
			if tags[pos] == tag && c.valid[set]>>pos&1 != 0 {
				c.dirty[set*nl+dst] |= 1 << pos
				break
			}
		}
	}
	c.dirty[c.last.set*nl+dst] = mark.dirty
	c.lanes[dst] = mark.lane
}

// LaneEagerVictim is NextEagerVictim on lane k: its dirty masks and
// cursor, and the shared tags as they stand now.
func (c *Cache) LaneEagerVictim(k, uselessN, maxSets int) (addr uint64, ok bool) {
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
	l := &c.lanes[k]
	nl, last := len(c.lanes), c.setCount-1
	dirty := c.dirty
	setIdx := l.eagerCursor
	for scanned := 0; scanned < maxSets; scanned++ {
		i := setIdx*nl + k
		setIdx = (setIdx + 1) & last
		if m := dirty[i] & useMask; m != 0 {
			pos := bits.TrailingZeros64(m)
			dirty[i] &^= 1 << pos
			l.eagerWrites++
			l.eagerCursor = setIdx
			set := (setIdx - 1) & last
			return c.reconstruct(set, c.tags[set*c.ways+pos]), true
		}
	}
	l.eagerCursor = setIdx
	return 0, false
}

// Clone returns a deep copy of a one-lane cache — contents, statistics and
// scan cursor. Cloning a warmed cache lets many configuration evaluations
// share one warmup (cache state does not depend on the NVM configuration).
// It is Fork(1): of a cache with several lanes it keeps lane 0.
func (c *Cache) Clone() *Cache { return c.Fork(1) }

// Fork returns a deep copy of the shared state and of lane 0 (its dirty
// masks, cursor and counters) with room for k lanes. Lanes 1..k-1 start
// blank: CopyLane fills one before it steps.
func (c *Cache) Fork(k int) *Cache {
	n := *c
	n.tags = append([]uint64(nil), c.tags...)
	n.valid = append([]uint64(nil), c.valid...)
	n.hitsByPos = append([]uint64(nil), c.hitsByPos...)
	n.lanes = make([]lane, k)
	n.dirty = make([]uint64, c.setCount*k)
	n.lanes[0] = c.lanes[0]
	nl := len(c.lanes)
	for s := 0; s < c.setCount; s++ {
		n.dirty[s*k] = c.dirty[s*nl]
	}
	return &n
}
