// The byte-lane reference cache: the LLC as it stood before the per-set
// bit masks, kept verbatim so the bitmask cache can be checked against it
// operation by operation. Every line carries one metadata byte (valid and
// dirty bits) beside its tag, the LRU shift copies that byte lane, and the
// eager-victim scan walks the useless positions of each set byte by byte.
package cache

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Metadata lane bits (one byte per line).
const (
	metaValid uint8 = 1 << 0
	metaDirty uint8 = 1 << 1
)

type refCache struct {
	tags        []uint64
	meta        []uint8
	setCount    int
	ways        int
	setMask     uint64
	setShift    uint
	stats       Stats
	eagerCursor int
}

func newRefCache(sizeBytes, ways int) (*refCache, error) {
	c, err := New(sizeBytes, ways)
	if err != nil {
		return nil, err
	}
	r := &refCache{
		tags:     make([]uint64, c.setCount*ways),
		meta:     make([]uint8, c.setCount*ways),
		setCount: c.setCount,
		ways:     ways,
		setMask:  c.setMask,
		setShift: c.setShift,
	}
	r.stats.HitsByPos = make([]uint64, ways)
	return r, nil
}

// Stats returns a snapshot of the counters.
func (c *refCache) Stats() Stats {
	s := c.stats
	s.HitsByPos = append([]uint64(nil), c.stats.HitsByPos...)
	return s
}

func (c *refCache) locate(addr uint64) (setIdx int, tag uint64) {
	lineAddr := addr / LineBytes
	return int(lineAddr & c.setMask), lineAddr >> c.setShift
}

func (c *refCache) reconstruct(setIdx int, tag uint64) uint64 {
	return (tag<<c.setShift | uint64(setIdx)) * LineBytes
}

func (c *refCache) Access(addr uint64, write bool) Result {
	setIdx, tag := c.locate(addr)
	base := setIdx * c.ways
	tags := c.tags[base : base+c.ways]
	meta := c.meta[base : base+c.ways]

	for pos := range tags {
		if meta[pos]&metaValid != 0 && tags[pos] == tag {
			c.stats.Hits++
			c.stats.HitsByPos[pos]++
			m := meta[pos]
			if write {
				m |= metaDirty
			}
			// Move to MRU.
			copy(tags[1:pos+1], tags[:pos])
			copy(meta[1:pos+1], meta[:pos])
			tags[0] = tag
			meta[0] = m
			return Result{Hit: true}
		}
	}

	// Miss: evict LRU (last position), fill at MRU.
	c.stats.Misses++
	res := Result{FillAddr: addr &^ uint64(LineBytes-1)}
	last := c.ways - 1
	if meta[last]&(metaValid|metaDirty) == metaValid|metaDirty {
		c.stats.Writebacks++
		res.Writeback = true
		res.WritebackAddr = c.reconstruct(setIdx, tags[last])
	}
	copy(tags[1:], tags[:last])
	copy(meta[1:], meta[:last])
	tags[0] = tag
	meta[0] = metaValid
	if write {
		meta[0] |= metaDirty
	}
	return res
}

func (c *refCache) UselessPositions(eagerThreshold int) int {
	if eagerThreshold <= 0 {
		return 0
	}
	var total uint64
	for _, h := range c.stats.HitsByPos {
		total += h
	}
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

func (c *refCache) NextEagerVictim(uselessN, maxSets int) (addr uint64, ok bool) {
	if uselessN <= 0 {
		return 0, false
	}
	if uselessN > c.ways {
		uselessN = c.ways
	}
	if maxSets <= 0 || maxSets > c.setCount {
		maxSets = c.setCount
	}
	const valadirty = metaValid | metaDirty
	for scanned := 0; scanned < maxSets; scanned++ {
		setIdx := c.eagerCursor
		c.eagerCursor = (c.eagerCursor + 1) % c.setCount
		base := setIdx * c.ways
		for pos := c.ways - uselessN; pos < c.ways; pos++ {
			if c.meta[base+pos]&valadirty == valadirty {
				c.meta[base+pos] &^= metaDirty
				c.stats.EagerWrites++
				return c.reconstruct(setIdx, c.tags[base+pos]), true
			}
		}
	}
	return 0, false
}

func (c *refCache) Clone() *refCache {
	n := &refCache{
		tags:        append([]uint64(nil), c.tags...),
		meta:        append([]uint8(nil), c.meta...),
		setCount:    c.setCount,
		ways:        c.ways,
		setMask:     c.setMask,
		setShift:    c.setShift,
		eagerCursor: c.eagerCursor,
	}
	n.stats = c.stats
	n.stats.HitsByPos = append([]uint64(nil), c.stats.HitsByPos...)
	return n
}

func (c *refCache) DirtyLines() int {
	n := 0
	const valadirty = metaValid | metaDirty
	for _, m := range c.meta {
		if m&valadirty == valadirty {
			n++
		}
	}
	return n
}

func (c *refCache) Snapshot() Snapshot {
	lines := make([]LineState, len(c.tags))
	for i, tag := range c.tags {
		lines[i] = LineState{Tag: tag, Valid: c.meta[i]&metaValid != 0, Dirty: c.meta[i]&metaDirty != 0}
	}
	st := c.stats
	st.HitsByPos = append([]uint64(nil), c.stats.HitsByPos...)
	return Snapshot{
		SizeBytes:   c.setCount * c.ways * LineBytes,
		Ways:        c.ways,
		Lines:       lines,
		EagerCursor: c.eagerCursor,
		Stats:       st,
	}
}

// refFromSnapshot rebuilds the reference from a snapshot. Validation is
// the production FromSnapshot's: the reference only re-reads the records.
func refFromSnapshot(s Snapshot) (*refCache, error) {
	if _, err := FromSnapshot(s); err != nil {
		return nil, err
	}
	c, err := newRefCache(s.SizeBytes, s.Ways)
	if err != nil {
		return nil, err
	}
	for i, ls := range s.Lines {
		c.tags[i] = ls.Tag
		var m uint8
		if ls.Valid {
			m |= metaValid
		}
		if ls.Dirty {
			m |= metaDirty
		}
		c.meta[i] = m
	}
	c.eagerCursor = s.EagerCursor
	c.stats = s.Stats
	c.stats.HitsByPos = append([]uint64(nil), s.Stats.HitsByPos...)
	return c, nil
}

// trafficMix shapes the random access stream of one differential run.
type trafficMix struct {
	name string
	// footprint is the number of distinct lines touched, as a multiple of
	// the cache's line capacity: below 1 the working set fits (hits spread
	// over the LRU stack), above 1 it thrashes (misses and writebacks).
	footprint float64
	// hotFrac of the accesses go to a hot eighth of the footprint.
	hotFrac float64
	// writeFrac of the accesses are stores.
	writeFrac float64
}

var trafficMixes = []trafficMix{
	{"hot", 0.5, 0.8, 0.3},
	{"cold", 8, 0.2, 0.3},
	{"write-heavy-hot", 0.9, 0.6, 0.9},
	{"write-heavy-cold", 3, 0.5, 0.8},
}

// geometries are {ways, sets} pairs covering direct-mapped, a single set,
// the simulator's 16-way LLC shape and the 64-way mask limit.
var geometries = [][2]int{{1, 64}, {2, 32}, {4, 1}, {4, 16}, {16, 8}, {64, 4}, {64, 1}}

// agree compares everything observable about the pair: Stats, dirty count,
// eager cursor and the full Snapshot.
func agree(c *Cache, r *refCache) error {
	if cs, rs := c.Stats(), r.Stats(); !reflect.DeepEqual(cs, rs) {
		return fmt.Errorf("stats diverged:\n got %+v\nwant %+v", cs, rs)
	}
	if cd, rd := c.DirtyLines(), r.DirtyLines(); cd != rd {
		return fmt.Errorf("dirty lines %d, reference %d", cd, rd)
	}
	if c.eagerCursor != r.eagerCursor {
		return fmt.Errorf("eager cursor %d, reference %d", c.eagerCursor, r.eagerCursor)
	}
	if cs, rs := c.Snapshot(), r.Snapshot(); !reflect.DeepEqual(cs, rs) {
		return fmt.Errorf("snapshots diverged")
	}
	return nil
}

// gobRoundTrip encodes s and decodes it back, as a checkpoint file would.
func gobRoundTrip(s Snapshot) (Snapshot, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return Snapshot{}, err
	}
	var out Snapshot
	err := gob.NewDecoder(&buf).Decode(&out)
	return out, err
}

// runDifferential drives a fresh cache and reference of the given geometry
// in lockstep through ops random operations and reports the first
// divergence.
func runDifferential(seed int64, geo [2]int, mix trafficMix, ops int) error {
	ways, sets := geo[0], geo[1]
	size := ways * sets * LineBytes
	c, err := New(size, ways)
	if err != nil {
		return err
	}
	r, err := newRefCache(size, ways)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	lines := int(mix.footprint*float64(ways*sets)) + 1
	hot := lines/8 + 1
	for i := 0; i < ops; i++ {
		line := rng.Intn(lines)
		if rng.Float64() < mix.hotFrac {
			line = rng.Intn(hot)
		}
		addr := uint64(line)*LineBytes + uint64(rng.Intn(LineBytes))
		write := rng.Float64() < mix.writeFrac
		if got, want := c.Access(addr, write), r.Access(addr, write); got != want {
			return fmt.Errorf("op %d: Access(%#x, %t) = %+v, reference %+v", i, addr, write, got, want)
		}

		// The harvest, as the machine runs it, on most accesses; the
		// arguments range over the clamped edges too.
		if rng.Intn(4) != 0 {
			thr := rng.Intn(40) - 1
			u := c.UselessPositions(thr)
			if want := r.UselessPositions(thr); u != want {
				return fmt.Errorf("op %d: UselessPositions(%d) = %d, reference %d", i, thr, u, want)
			}
			if rng.Intn(2) == 0 {
				u = rng.Intn(ways+3) - 1
			}
			maxSets := rng.Intn(sets+3) - 1
			if rng.Intn(2) == 0 {
				maxSets = 32
			}
			ga, gok := c.NextEagerVictim(u, maxSets)
			wa, wok := r.NextEagerVictim(u, maxSets)
			if ga != wa || gok != wok {
				return fmt.Errorf("op %d: NextEagerVictim(%d, %d) = (%#x, %t), reference (%#x, %t)", i, u, maxSets, ga, gok, wa, wok)
			}
			if c.eagerCursor != r.eagerCursor {
				return fmt.Errorf("op %d: NextEagerVictim(%d, %d) left cursor at %d, reference %d", i, u, maxSets, c.eagerCursor, r.eagerCursor)
			}
		}

		switch rng.Intn(200) {
		case 0:
			// Continue on clones; the originals must be unaffected by
			// what the clones do next.
			oc, or := c, r
			c, r = c.Clone(), r.Clone()
			before := oc.Snapshot()
			c.Access(addr+LineBytes*uint64(sets), true)
			r.Access(addr+LineBytes*uint64(sets), true)
			c.NextEagerVictim(ways, 0)
			r.NextEagerVictim(ways, 0)
			if !reflect.DeepEqual(oc.Snapshot(), before) {
				return fmt.Errorf("op %d: clone aliases the original", i)
			}
			if err := agree(oc, or); err != nil {
				return fmt.Errorf("op %d: originals after clone: %v", i, err)
			}
		case 1:
			// Checkpoint both through gob and continue on the restores.
			cs, err := gobRoundTrip(c.Snapshot())
			if err != nil {
				return err
			}
			rs, err := gobRoundTrip(r.Snapshot())
			if err != nil {
				return err
			}
			if c, err = FromSnapshot(cs); err != nil {
				return fmt.Errorf("op %d: restore: %v", i, err)
			}
			if r, err = refFromSnapshot(rs); err != nil {
				return fmt.Errorf("op %d: reference restore: %v", i, err)
			}
		}
		if i%97 == 0 {
			if err := agree(c, r); err != nil {
				return fmt.Errorf("op %d: %v", i, err)
			}
		}
	}
	return agree(c, r)
}

// TestDifferentialAgainstReference: for every geometry and traffic mix, and
// random eager-scan arguments including the clamped edges, the bitmask
// cache returns the same value from every call as the byte-lane reference,
// leaves the eager cursor in the same place, and survives Clone and a gob
// checkpoint round trip in step with it.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, geo := range geometries {
		for _, mix := range trafficMixes {
			geo, mix := geo, mix
			t.Run(fmt.Sprintf("%dx%d/%s", geo[0], geo[1], mix.name), func(t *testing.T) {
				var failure error
				f := func(seed int64) bool {
					failure = runDifferential(seed, geo, mix, 3000)
					return failure == nil
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
					t.Fatalf("%v\n%v", err, failure)
				}
			})
		}
	}
}

// TestReferenceVictimIsLowestUselessPosition pins the victim rule on one
// set: with several dirty lines in the useless range, both caches harvest
// the one nearest the MRU end first, then the next, and the cursor stops
// one past the set each time.
func TestReferenceVictimIsLowestUselessPosition(t *testing.T) {
	c := mustNew(t, 4*LineBytes*2, 4) // 2 sets
	r, err := newRefCache(4*LineBytes*2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Set 1, MRU..LRU: line 7 (clean), 5 (dirty), 3 (dirty), 1 (dirty).
	for _, op := range []struct {
		line  uint64
		write bool
	}{{1, true}, {3, true}, {5, true}, {7, false}} {
		c.Access(op.line*LineBytes, op.write)
		r.Access(op.line*LineBytes, op.write)
	}
	for _, want := range []uint64{5, 3, 1} {
		ga, gok := c.NextEagerVictim(3, 0)
		wa, wok := r.NextEagerVictim(3, 0)
		if !gok || ga != want*LineBytes || ga != wa || gok != wok {
			t.Fatalf("victim (%#x, %t), reference (%#x, %t), want line %d", ga, gok, wa, wok, want)
		}
		if c.eagerCursor != 0 || r.eagerCursor != 0 {
			t.Fatalf("cursor %d, reference %d, want 0 (one past set 1)", c.eagerCursor, r.eagerCursor)
		}
	}
	if _, ok := c.NextEagerVictim(3, 0); ok {
		t.Fatal("no dirty line left in the useless range")
	}
	if err := agree(c, r); err != nil {
		t.Fatal(err)
	}
}
