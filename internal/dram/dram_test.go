package dram

import (
	"reflect"
	"testing"
)

// stubMem is a scripted tier-below: it records the traffic it receives and
// models a fixed per-write acceptance delay so backpressure propagation is
// observable.
type stubMem struct {
	reads      []uint64
	writes     []uint64
	eagers     []uint64
	eagerOK    bool
	writeDelay uint64
	drains     int
}

func (s *stubMem) Name() string                 { return "stub" }
func (s *stubMem) Read(addr, now uint64) uint64 { s.reads = append(s.reads, addr); return now + 100 }
func (s *stubMem) Write(addr, now uint64) uint64 {
	s.writes = append(s.writes, addr)
	return now + s.writeDelay
}
func (s *stubMem) EagerWrite(addr, now uint64) bool {
	if !s.eagerOK {
		return false
	}
	s.eagers = append(s.eagers, addr)
	return true
}
func (s *stubMem) EagerSpace() bool        { return s.eagerOK }
func (s *stubMem) Drain(now uint64) uint64 { s.drains++; return now }

// tinyParams is a 64-line, 4-way geometry with promote-on-first-touch, so
// tests control residency exactly.
func tinyParams() Params {
	return Params{
		CacheBytes:       64 * LineBytes, // 16 sets x 4 ways
		Ways:             4,
		HitLatency:       20,
		PageBytes:        4096,
		HotTableSize:     1 << 10,
		PromoteThreshold: 1,
		DecayEpochMisses: 1 << 20, // effectively no decay unless a test opts in
	}
}

func mustNew(t *testing.T, p Params, next *stubMem) *Cache {
	t.Helper()
	d, err := New(p, next)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// lineAddr builds the address of the line with the given set and tag.
func lineAddr(d *Cache, set, tag int) uint64 {
	return d.reconstruct(set, uint64(tag)) //mctlint:ignore cyclecast test values are small non-negative constants
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.CacheBytes = 0 },
		func(p *Params) { p.CacheBytes = 3 * LineBytes; p.Ways = 2 },  // odd set division
		func(p *Params) { p.CacheBytes = 96 * LineBytes; p.Ways = 8 }, // 12 sets, not a power of two
		func(p *Params) { p.HitLatency = 0 },
		func(p *Params) { p.PageBytes = 100 },
		func(p *Params) { p.PageBytes = LineBytes / 2 },
		func(p *Params) { p.HotTableSize = 100 },
		func(p *Params) { p.PromoteThreshold = 0 },
		func(p *Params) { p.PromoteThreshold = MaxPromoteThreshold + 1 },
		func(p *Params) { p.DecayEpochMisses = 0 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params %+v passed validation", i, p)
		}
	}
}

// TestWritebackStormFullDirtySet: Drain on a completely dirty cache must
// flush every line to the tier below, propagating per-write backpressure,
// and leave the cache clean (but still resident).
func TestWritebackStormFullDirtySet(t *testing.T) {
	next := &stubMem{writeDelay: 5}
	d := mustNew(t, tinyParams(), next)

	lines := tinyParams().CacheBytes / LineBytes
	want := map[uint64]bool{}
	for set := 0; set < 16; set++ {
		for tag := 0; tag < 4; tag++ {
			addr := lineAddr(d, set, tag)
			d.Write(addr, 0) // miss -> hot (threshold 1) -> write-allocate dirty
			want[addr] = true
		}
	}
	if got := d.DirtyLines(); got != lines {
		t.Fatalf("dirty lines after fill = %d, want %d", got, lines)
	}
	if len(next.writes) != 0 {
		t.Fatalf("fill phase leaked %d writes below before any eviction", len(next.writes))
	}

	const start = 1000
	end := d.Drain(start)
	if wantEnd := uint64(start + uint64(lines)*next.writeDelay); end != wantEnd {
		t.Errorf("drain backpressure: end=%d, want %d (each of %d flushes stalls %d)", end, wantEnd, lines, next.writeDelay)
	}
	st := d.Stats()
	if st.Writebacks != uint64(lines) || st.DrainFlushes != uint64(lines) {
		t.Errorf("storm flushed %d writebacks / %d drain flushes, want %d each", st.Writebacks, st.DrainFlushes, lines)
	}
	if d.DirtyLines() != 0 {
		t.Errorf("drain left %d dirty lines", d.DirtyLines())
	}
	got := map[uint64]bool{}
	for _, a := range next.writes {
		got[a] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("drained address set differs: got %d unique, want %d", len(got), len(want))
	}
	if next.drains != 1 {
		t.Errorf("tier below drained %d times, want 1", next.drains)
	}

	// A second drain is a no-op: nothing dirty remains.
	d.Drain(end)
	if st2 := d.Stats(); st2.DrainFlushes != uint64(lines) {
		t.Errorf("second drain flushed %d more lines", st2.DrainFlushes-uint64(lines))
	}
}

// TestPromotionEvictionConflict: a line promoted into a full set evicts the
// dirty LRU victim (writeback below), and the evicted line can itself be
// promoted again — residency and stats stay consistent through the churn.
func TestPromotionEvictionConflict(t *testing.T) {
	p := tinyParams()
	p.Ways = 2
	p.CacheBytes = 32 * LineBytes // 16 sets x 2 ways
	next := &stubMem{}
	d := mustNew(t, p, next)

	a := lineAddr(d, 3, 1)
	b := lineAddr(d, 3, 2)
	c := lineAddr(d, 3, 3)

	d.Write(a, 0)
	d.Write(b, 0)
	if !d.Contains(a) || !d.Contains(b) {
		t.Fatal("write-allocated lines not resident")
	}
	d.Write(c, 0) // set full: evicts a (LRU, dirty)
	if d.Contains(a) {
		t.Error("evicted line still resident")
	}
	if !d.Contains(b) || !d.Contains(c) {
		t.Error("surviving lines lost in eviction")
	}
	if len(next.writes) != 1 || next.writes[0] != a {
		t.Fatalf("eviction wrote back %v, want exactly [%d]", next.writes, a)
	}

	// The evicted line promotes again on its next touch; the set rotates.
	d.Read(a, 0)
	if !d.Contains(a) {
		t.Error("re-promoted line not resident")
	}
	if d.Contains(b) {
		t.Error("LRU victim of the re-promotion still resident")
	}
	if len(next.writes) != 2 || next.writes[1] != b {
		t.Fatalf("re-promotion wrote back %v, want [.., %d]", next.writes, b)
	}
	// The re-promoted line was installed clean; the demand fill still
	// forwards below for the data.
	if len(next.reads) != 1 || next.reads[0] != a {
		t.Errorf("demand fill below = %v, want [%d]", next.reads, a)
	}

	st := d.Stats()
	if st.WriteMisses != 3 || st.Promotions != 4 || st.Writebacks != 2 {
		t.Errorf("stats = %+v, want WriteMisses=3 Promotions=4 Writebacks=2", st)
	}
}

// TestCounterDecayGatesPromotion: with epoch decay, sparse touches spread
// across epochs never reach the threshold, while the same number of
// touches within one epoch promote — the threshold separates touch rates.
func TestCounterDecayGatesPromotion(t *testing.T) {
	p := tinyParams()
	p.PromoteThreshold = 2
	p.DecayEpochMisses = 4
	next := &stubMem{}
	d := mustNew(t, p, next)

	cold := lineAddr(d, 0, 0) // page 0
	d.Read(cold, 0)           // touch 1: below threshold, forwarded
	// 8 misses on distinct far-away pages advance two epochs.
	for i := 0; i < 8; i++ {
		d.Read(uint64(100+i)*uint64(p.PageBytes), 0) //mctlint:ignore cyclecast small loop constant
	}
	d.Read(cold+LineBytes, 0) // same page, two epochs later: count decayed to 0 first
	if d.Contains(cold + LineBytes) {
		t.Error("cold page promoted despite decayed counter")
	}
	if st := d.Stats(); st.Promotions != 0 {
		t.Errorf("sparse touches promoted %d lines, want 0", st.Promotions)
	}

	// A burst of touches on one page promotes: three consecutive misses
	// cross at most one epoch boundary, so at least two land in the same
	// epoch and the counter reaches the threshold.
	hot := lineAddr(d, 8, 0x4000) // a fresh page far from the cold one
	d.Read(hot, 0)
	d.Read(hot+LineBytes, 0)
	d.Read(hot+2*LineBytes, 0)
	if !d.Contains(hot + 2*LineBytes) {
		t.Error("burst-touched page not promoted")
	}
	if st := d.Stats(); st.Promotions == 0 {
		t.Error("burst promoted no lines")
	}
}

// TestEagerWriteAbsorption: resident lines absorb eager offers (marked
// dirty, nothing forwarded); non-resident offers pass through, and eager
// offers never heat pages.
func TestEagerWriteAbsorption(t *testing.T) {
	p := tinyParams()
	p.PromoteThreshold = 2 // eager offers alone must never install lines
	next := &stubMem{eagerOK: true}
	d := mustNew(t, p, next)

	resident := lineAddr(d, 1, 1)
	d.Read(resident, 0) // touch 1
	d.Read(resident, 0) // touch 2? no: hit path after install...
	// Promote explicitly: two misses on the same page.
	d.Read(resident+LineBytes, 0)
	if !d.Contains(resident + LineBytes) {
		t.Fatal("setup: line not promoted")
	}

	if !d.EagerWrite(resident+LineBytes, 0) {
		t.Error("resident line rejected an eager offer")
	}
	if len(next.eagers) != 0 {
		t.Error("absorbed eager offer leaked below")
	}
	if d.DirtyLines() != 1 {
		t.Errorf("absorbed eager offer left %d dirty lines, want 1", d.DirtyLines())
	}

	miss := lineAddr(d, 2, 7)
	if !d.EagerWrite(miss, 0) {
		t.Error("forwarded eager offer rejected by accepting tier below")
	}
	if len(next.eagers) != 1 || next.eagers[0] != miss {
		t.Errorf("forwarded eager offers = %v, want [%d]", next.eagers, miss)
	}
	if d.Contains(miss) {
		t.Error("eager offer heated a page into promotion")
	}

	next.eagerOK = false
	if d.EagerWrite(lineAddr(d, 2, 9), 0) {
		t.Error("eager offer accepted with no space anywhere")
	}
	if d.EagerSpace() {
		t.Error("EagerSpace true while the tier below has none")
	}
}

// TestSnapshotRoundTrip: a restored tier continues the identical
// simulation — same stats, same traffic below, same final state.
func TestSnapshotRoundTrip(t *testing.T) {
	p := tinyParams()
	p.PromoteThreshold = 2
	p.DecayEpochMisses = 16
	drive := func(d *Cache, rounds int) {
		now := uint64(0)
		for i := 0; i < rounds; i++ {
			a := uint64(i*37%512) * LineBytes //mctlint:ignore cyclecast bounded loop arithmetic
			if i%3 == 0 {
				now = d.Write(a, now)
			} else {
				now = d.Read(a, now)
			}
			if i%7 == 0 {
				d.EagerWrite(a, now)
			}
		}
	}

	orig := mustNew(t, p, &stubMem{eagerOK: true})
	drive(orig, 200)

	restored, err := FromSnapshot(orig.Snapshot(), &stubMem{eagerOK: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig.Snapshot(), restored.Snapshot()) {
		t.Fatal("snapshot round trip changed state")
	}

	// Identical further traffic must produce identical state and stats.
	drive(orig, 150)
	drive(restored, 150)
	if !reflect.DeepEqual(orig.Snapshot(), restored.Snapshot()) {
		t.Error("restored tier diverged from original under identical traffic")
	}
	if orig.Stats() != restored.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", orig.Stats(), restored.Stats())
	}
}

// TestCloneIsolation: churning a clone never perturbs the original.
func TestCloneIsolation(t *testing.T) {
	next := &stubMem{}
	d := mustNew(t, tinyParams(), next)
	for i := 0; i < 100; i++ {
		d.Write(uint64(i)*LineBytes, 0) //mctlint:ignore cyclecast small loop constant
	}
	before := d.Snapshot()

	cl := d.Clone(&stubMem{})
	for i := 0; i < 300; i++ {
		cl.Write(uint64(1000+i)*LineBytes, 0) //mctlint:ignore cyclecast small loop constant
	}
	for i := 0; i < 300; i++ {
		cl.Read(uint64(i)*LineBytes, 0) //mctlint:ignore cyclecast small loop constant
	}
	cl.Drain(0)
	if reflect.DeepEqual(before, cl.Snapshot()) {
		t.Fatal("clone did not diverge; the test is vacuous")
	}

	if !reflect.DeepEqual(before, d.Snapshot()) {
		t.Error("clone activity perturbed the original tier")
	}
}

// TestFromSnapshotRejects: geometry or knob mismatches fail loudly instead
// of corrupting state.
func TestFromSnapshotRejects(t *testing.T) {
	d := mustNew(t, tinyParams(), &stubMem{})
	good := d.Snapshot()

	s := good
	s.Lines = s.Lines[:len(s.Lines)-1]
	if _, err := FromSnapshot(s, &stubMem{}); err == nil {
		t.Error("truncated line state accepted")
	}

	s = good
	s.Hot = s.Hot[:len(s.Hot)-1]
	if _, err := FromSnapshot(s, &stubMem{}); err == nil {
		t.Error("truncated hot table accepted")
	}

	s = good
	s.Promote = 0
	if _, err := FromSnapshot(s, &stubMem{}); err == nil {
		t.Error("out-of-range promote threshold accepted")
	}

	s = good
	s.Promote = good.Params.PromoteThreshold + 1
	if _, err := FromSnapshot(s, &stubMem{}); err == nil {
		t.Error("promote threshold differing from the params' accepted")
	}
}

// TestHitRateWindows: Stats deltas between two points form a correct
// windowed hit rate (the machine layer computes window metrics this way).
func TestHitRateWindows(t *testing.T) {
	next := &stubMem{}
	d := mustNew(t, tinyParams(), next)

	a := lineAddr(d, 5, 1)
	d.Read(a, 0) // miss + promote
	d.Read(a, 0) // hit
	w0 := d.Stats()
	if got := w0.HitRate(); got != 0.5 {
		t.Errorf("window-0 hit rate = %v, want 0.5", got)
	}

	// Window 2: three hits, one miss; the windowed rate uses deltas, not
	// cumulative counts.
	d.Read(a, 0)
	d.Read(a, 0)
	d.Read(a, 0)
	d.Read(lineAddr(d, 6, 1), 0)
	w1 := d.Stats()
	delta := Stats{Hits: w1.Hits - w0.Hits, Misses: w1.Misses - w0.Misses}
	if got := delta.HitRate(); got != 0.75 {
		t.Errorf("window-1 hit rate = %v, want 0.75 (delta %+v)", got, delta)
	}
	if cum := w1.HitRate(); cum == delta.HitRate() {
		t.Errorf("cumulative rate %v accidentally equals windowed rate; test lost its power", cum)
	}
}

// DirtyLines counts resident dirty lines (an observation helper for
// tests).
func (d *Cache) DirtyLines() int {
	n := 0
	const valadirty = metaValid | metaDirty
	for _, m := range d.meta {
		if m&valadirty == valadirty {
			n++
		}
	}
	return n
}

// Contains reports whether addr's line is resident (an observation helper
// for tests; it touches neither LRU order nor stats).
func (d *Cache) Contains(addr uint64) bool {
	setIdx, tag := d.locate(addr)
	base := setIdx * d.ways
	for pos := 0; pos < d.ways; pos++ {
		if d.meta[base+pos]&metaValid != 0 && d.tags[base+pos] == tag {
			return true
		}
	}
	return false
}
