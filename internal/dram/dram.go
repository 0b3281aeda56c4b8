// Package dram implements the DRAM cache tier of the hybrid DRAM–NVM
// hierarchy (ROADMAP item 5; after the analytical hybrid model of
// Salkhordeh et al.): a set-associative write-back cache of NVM lines
// interposed between the LLC and the NVM controller on the hierarchy.Mem
// seam. The tier absorbs the traffic of hot pages — cutting both NVM
// latency and, more importantly, NVM write wear — at the cost of DRAM
// access/refresh energy, which is exactly the tradeoff dimension the
// learning stack optimizes over.
//
// Migration policy (write-back, hot-page promotion):
//
//   - A direct-mapped page-touch table counts LLC misses per
//     PageBytes-sized page. A page whose counter reaches the promotion
//     threshold is hot: its lines are installed in the DRAM cache as they
//     are touched (demand fills write-allocate on hot pages too).
//   - Read hits are serviced in HitLatency memory cycles; misses (and
//     cold-page traffic) forward to the NVM controller unchanged.
//   - LLC dirty writebacks that hit are absorbed — the NVM write is
//     elided entirely until the line is evicted (dirty eviction to NVM) —
//     the main wear win of the hybrid organization.
//   - Evictions of dirty victims and the end-of-run Drain write back
//     through the tier below, inheriting its backpressure semantics.
//
// A smaller promotion threshold is more aggressive: more of the working
// set migrates to DRAM (higher hit ratio, more DRAM energy, fewer NVM
// writes). The threshold is fixed when the tier is built
// (config.TierConfig.DRAMPromoteThreshold), so sweeping it means one
// machine per value.
//
// The tier obeys the package-wide hot-path discipline: the line and
// page-table arrays are flat SoA lanes allocated at construction, and no
// method allocates — the streaming 0-allocs/op gate covers the hybrid
// pipeline too.
package dram

import (
	"fmt"

	"mct/internal/hierarchy"
)

// LineBytes is the cached line size in bytes (matches the LLC line size:
// the tier caches exactly the lines the LLC misses on).
const LineBytes = 64

// MaxPromoteThreshold bounds the promotion knob's legal range.
const MaxPromoteThreshold = 64

// Metadata lane bits (one byte per line).
const (
	metaValid uint8 = 1 << 0
	metaDirty uint8 = 1 << 1
)

// hotCountCap stops the page-touch counters short of wrapping.
const hotCountCap = 1 << 30

// Params holds the DRAM tier geometry and policy defaults.
type Params struct {
	// CacheBytes is the tier capacity; must divide into power-of-two
	// sets of Ways lines.
	CacheBytes int
	Ways       int

	// HitLatency is the service time of a tier hit in memory-controller
	// cycles (DRAM row access + transfer; far below the NVM read path).
	HitLatency uint64

	// PageBytes is the hot-page tracking granularity (a power of two).
	PageBytes int
	// HotTableSize is the number of direct-mapped page-touch counters (a
	// power of two). Colliding pages steal each other's slot — a bounded,
	// deterministic approximation of per-page counting.
	HotTableSize int

	// PromoteThreshold is how many tracked touches make a page hot
	// (1 = promote on first touch).
	PromoteThreshold int

	// DecayEpochMisses bounds counter history: every DecayEpochMisses
	// tier misses the touch table enters a new epoch and a slot's count
	// decays (halves) on its first touch of the epoch. Without decay every
	// page eventually exceeds any threshold and the knob degenerates; with
	// it the threshold separates touch *rates*, so streaming pages (many
	// line touches in a burst) promote while cold random traffic does not.
	DecayEpochMisses int
}

// DefaultParams returns the stock hybrid-tier geometry: a 16 MB, 8-way
// DRAM cache with 4 KB page tracking and a 4096-entry touch table.
func DefaultParams() Params {
	return Params{
		CacheBytes:       16 << 20,
		Ways:             8,
		HitLatency:       20, // 50 ns at the 400 MHz controller clock
		PageBytes:        4096,
		HotTableSize:     1 << 12,
		PromoteThreshold: 2,
		DecayEpochMisses: 4096,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.CacheBytes <= 0 || p.Ways <= 0 {
		return fmt.Errorf("dram: invalid geometry %d/%d", p.CacheBytes, p.Ways)
	}
	lines := p.CacheBytes / LineBytes
	if lines*LineBytes != p.CacheBytes || lines%p.Ways != 0 {
		return fmt.Errorf("dram: size %d not divisible into %d-way sets of %d-byte lines", p.CacheBytes, p.Ways, LineBytes)
	}
	if sets := lines / p.Ways; sets&(sets-1) != 0 {
		return fmt.Errorf("dram: set count %d is not a power of two", sets)
	}
	if p.HitLatency == 0 {
		return fmt.Errorf("dram: zero hit latency")
	}
	if p.PageBytes < LineBytes || p.PageBytes&(p.PageBytes-1) != 0 {
		return fmt.Errorf("dram: page size %d not a power of two ≥ %d", p.PageBytes, LineBytes)
	}
	if p.HotTableSize <= 0 || p.HotTableSize&(p.HotTableSize-1) != 0 {
		return fmt.Errorf("dram: hot-table size %d not a power of two", p.HotTableSize)
	}
	if p.PromoteThreshold < 1 || p.PromoteThreshold > MaxPromoteThreshold {
		return fmt.Errorf("dram: promote threshold %d outside [1,%d]", p.PromoteThreshold, MaxPromoteThreshold)
	}
	if p.DecayEpochMisses <= 0 {
		return fmt.Errorf("dram: non-positive decay epoch %d", p.DecayEpochMisses)
	}
	return nil
}

// Stats aggregates tier event counters. All fields are plain integers, so
// a Stats value copies by assignment.
type Stats struct {
	Hits   uint64 // demand fills serviced from the tier
	Misses uint64 // demand fills forwarded to the tier below

	WriteHits   uint64 // LLC writebacks absorbed (NVM write elided)
	WriteMisses uint64 // LLC writebacks forwarded or write-allocated

	EagerAbsorbed uint64 // eager writebacks absorbed by a resident line

	Promotions   uint64 // lines installed for hot pages
	Writebacks   uint64 // dirty evictions written to the tier below
	DrainFlushes uint64 // dirty lines flushed by Drain
}

// Clone returns a copy of s (value semantics; kept for contract symmetry
// with the other layers' Stats types).
func (s Stats) Clone() Stats { return s }

// HitRate returns the demand-fill hit ratio of the counted interval.
func (s Stats) HitRate() float64 {
	if tot := s.Hits + s.Misses; tot > 0 {
		return float64(s.Hits) / float64(tot)
	}
	return 0
}

// Cache is the DRAM cache tier. It is not safe for concurrent use.
type Cache struct {
	p    Params
	next hierarchy.Mem

	// tags and meta are the SoA line array (see internal/cache): entry
	// set*ways+pos holds the line at LRU stack position pos (0 = MRU).
	tags     []uint64
	meta     []uint8
	setCount int
	ways     int
	setMask  uint64
	setShift uint

	// hotTags/hotCnt/hotEpoch are the direct-mapped page-touch table;
	// hotEpoch tags the epoch a slot's count was last touched in, so
	// stale counts decay lazily (no sweep on the hot path).
	hotTags  []uint64
	hotCnt   []uint32
	hotEpoch []uint32
	hotMask  uint64

	// epoch/missCount drive the lazy counter decay: every
	// p.DecayEpochMisses tier misses open a new epoch.
	epoch     uint32
	missCount uint64

	st Stats
}

// New builds a DRAM cache tier over next (the tier its misses, evictions
// and drain flushes forward to).
func New(p Params, next hierarchy.Mem) (*Cache, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if next == nil {
		return nil, fmt.Errorf("dram: nil next tier")
	}
	lines := p.CacheBytes / LineBytes
	setCount := lines / p.Ways
	d := &Cache{
		p:        p,
		next:     next,
		tags:     make([]uint64, lines),
		meta:     make([]uint8, lines),
		setCount: setCount,
		ways:     p.Ways,
		setMask:  uint64(setCount - 1),
		setShift: uint(log2(setCount)),
		hotTags:  make([]uint64, p.HotTableSize),
		hotCnt:   make([]uint32, p.HotTableSize),
		hotEpoch: make([]uint32, p.HotTableSize),
		hotMask:  uint64(p.HotTableSize - 1),
	}
	return d, nil
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// Name identifies the tier (hierarchy.Tier).
func (d *Cache) Name() string { return "dram" }

// Stats returns a snapshot of the counters.
func (d *Cache) Stats() Stats { return d.st }

func (d *Cache) locate(addr uint64) (setIdx int, tag uint64) {
	lineAddr := addr / LineBytes
	return int(lineAddr & d.setMask), lineAddr >> d.setShift //mctlint:ignore cyclecast masked value is bounded by the set count
}

func (d *Cache) reconstruct(setIdx int, tag uint64) uint64 {
	return (tag<<d.setShift | uint64(setIdx)) * LineBytes
}

// touchPage counts a miss against addr's page and reports whether the
// page is (now) hot. Colliding pages evict each other's counter, so cold
// conflict traffic cannot pin a slot forever; counts from past epochs
// halve before the touch is added, so hotness means a sustained touch
// rate, not accumulated age.
func (d *Cache) touchPage(addr uint64) bool {
	d.missCount++
	if d.missCount%uint64(d.p.DecayEpochMisses) == 0 {
		d.epoch++
	}
	page := addr / uint64(d.p.PageBytes)
	// Fold high bits in so strided access patterns spread over the table.
	h := page ^ (page >> 7) ^ (page >> 14)
	slot := h & d.hotMask
	if d.hotTags[slot] == page && d.hotCnt[slot] > 0 {
		for d.hotEpoch[slot] != d.epoch {
			d.hotCnt[slot] /= 2
			d.hotEpoch[slot]++
			if d.hotCnt[slot] == 0 {
				d.hotEpoch[slot] = d.epoch
				break
			}
		}
		if d.hotCnt[slot] < hotCountCap {
			d.hotCnt[slot]++
		}
	} else {
		d.hotTags[slot] = page
		d.hotCnt[slot] = 1
		d.hotEpoch[slot] = d.epoch
	}
	return int(d.hotCnt[slot]) >= d.p.PromoteThreshold
}

// probe looks addr up and, on a hit, moves the line to MRU with dirty
// OR-ed in, returning true. One branchy pass over the set's tag lane —
// the tier's per-miss cost on the simulator hot path.
func (d *Cache) probe(addr uint64, markDirty bool) bool {
	setIdx, tag := d.locate(addr)
	base := setIdx * d.ways
	tags := d.tags[base : base+d.ways]
	meta := d.meta[base : base+d.ways]
	for pos := range tags {
		if meta[pos]&metaValid != 0 && tags[pos] == tag {
			m := meta[pos]
			if markDirty {
				m |= metaDirty
			}
			copy(tags[1:pos+1], tags[:pos])
			copy(meta[1:pos+1], meta[:pos])
			tags[0] = tag
			meta[0] = m
			return true
		}
	}
	return false
}

// fill installs addr's line at MRU, evicting the LRU victim (dirty
// victims write back to the tier below, whose backpressure advances now).
// The returned time carries any eviction backpressure.
func (d *Cache) fill(addr, now uint64, dirty bool) uint64 {
	setIdx, tag := d.locate(addr)
	base := setIdx * d.ways
	tags := d.tags[base : base+d.ways]
	meta := d.meta[base : base+d.ways]
	last := d.ways - 1
	if meta[last]&(metaValid|metaDirty) == metaValid|metaDirty {
		d.st.Writebacks++
		if acc := d.next.Write(d.reconstruct(setIdx, tags[last]), now); acc > now {
			now = acc
		}
	}
	copy(tags[1:], tags[:last])
	copy(meta[1:], meta[:last])
	tags[0] = tag
	meta[0] = metaValid
	if dirty {
		meta[0] |= metaDirty
	}
	d.st.Promotions++
	return now
}

// Read services a demand fill (hierarchy.Mem). Hits cost HitLatency;
// misses touch the page counter, promote on hot pages, and forward to
// the tier below for the data either way.
func (d *Cache) Read(addr, now uint64) uint64 {
	if d.probe(addr, false) {
		d.st.Hits++
		return now + d.p.HitLatency
	}
	d.st.Misses++
	if d.touchPage(addr) {
		now = d.fill(addr, now, false)
	}
	return d.next.Read(addr, now)
}

// Write accepts an LLC dirty writeback (hierarchy.Mem). Resident lines
// absorb it (the NVM write is elided until eviction); hot-page misses
// write-allocate; cold misses forward to the tier below.
func (d *Cache) Write(addr, now uint64) uint64 {
	if d.probe(addr, true) {
		d.st.WriteHits++
		return now
	}
	d.st.WriteMisses++
	if d.touchPage(addr) {
		return d.fill(addr, now, true)
	}
	return d.next.Write(addr, now)
}

// EagerWrite offers an eager writeback (hierarchy.Mem). A resident line
// absorbs it outright (marked dirty — its eventual eviction carries the
// data down); otherwise the offer forwards to the tier below. Eager
// offers do not heat pages: harvested victims are by definition lines the
// LLC considers useless.
func (d *Cache) EagerWrite(addr, now uint64) bool {
	if d.probe(addr, true) {
		d.st.EagerAbsorbed++
		return true
	}
	return d.next.EagerWrite(addr, now)
}

// EagerSpace reports whether an eager offer could be accepted: a resident
// hit always can, so this delegates to the tier below (the conservative
// gate for the forwarding case).
func (d *Cache) EagerSpace() bool { return d.next.EagerSpace() }

// Drain flushes every dirty line to the tier below in deterministic
// set-major, MRU-to-LRU order — the writeback storm of a full dirty set —
// then drains the tier below so the flushed writes retire too.
func (d *Cache) Drain(now uint64) uint64 {
	const valadirty = metaValid | metaDirty
	for i, m := range d.meta {
		if m&valadirty != valadirty {
			continue
		}
		d.meta[i] &^= metaDirty
		d.st.Writebacks++
		d.st.DrainFlushes++
		setIdx := i / d.ways
		if acc := d.next.Write(d.reconstruct(setIdx, d.tags[i]), now); acc > now {
			now = acc
		}
	}
	return d.next.Drain(now)
}
