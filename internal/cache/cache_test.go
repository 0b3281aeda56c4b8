package cache

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, size, ways int) *Cache {
	t.Helper()
	c, err := New(size, ways)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewErrors(t *testing.T) {
	cases := []struct{ size, ways int }{
		{0, 4}, {1024, 0}, {1000, 4} /* not divisible */, {3 * 64 * 4, 4}, /* 3 sets: not a power of two */
		{128 * 64, 128} /* wider than the per-set masks */, {2 * 65 * 64, 65},
	}
	for _, c := range cases {
		if _, err := New(c.size, c.ways); err == nil {
			t.Errorf("New(%d,%d) should fail", c.size, c.ways)
		}
	}
	c := mustNew(t, 64*64*4, 4)
	if c.Ways() != 4 || c.setCount != 64 {
		t.Fatalf("geometry wrong: %d ways, %d sets", c.Ways(), c.setCount)
	}
	c = mustNew(t, 2*maxWays*64, maxWays)
	if c.Ways() != maxWays || c.setCount != 2 {
		t.Fatalf("geometry wrong: %d ways, %d sets", c.Ways(), c.setCount)
	}
}

func TestHitMissAndLRU(t *testing.T) {
	// 1 set, 2 ways: the simplest LRU observable.
	c := mustNew(t, 2*64, 2)
	a, b, d := uint64(0), uint64(64), uint64(128) // all map to set 0

	if r := c.Access(a, false); r.Hit {
		t.Fatal("cold access must miss")
	}
	if r := c.Access(b, false); r.Hit {
		t.Fatal("second line must miss")
	}
	if r := c.Access(a, false); !r.Hit {
		t.Fatal("a must hit")
	}
	// LRU is b; filling d must evict b (clean — no writeback).
	if r := c.Access(d, false); r.Hit || r.Writeback {
		t.Fatalf("expected clean eviction, got %+v", r)
	}
	// b was evicted, a retained.
	if r := c.Access(a, false); !r.Hit {
		t.Fatal("a must still be resident")
	}
	if r := c.Access(b, false); r.Hit {
		t.Fatal("b must have been evicted")
	}
}

func TestDirtyWritebackAddress(t *testing.T) {
	c := mustNew(t, 2*64, 2)
	addr := uint64(4096 + 0) // set 0 in a 1-set cache
	c.Access(addr, true)     // dirty fill
	c.Access(64, false)
	// Evict the dirty line.
	r := c.Access(128, false)
	if !r.Writeback || r.WritebackAddr != addr {
		t.Fatalf("expected writeback of %#x, got %+v", addr, r)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatal("writeback counter wrong")
	}
}

func TestStoreDirtiesOnHit(t *testing.T) {
	c := mustNew(t, 2*64, 2)
	c.Access(0, false) // clean fill
	c.Access(0, true)  // store hit dirties
	c.Access(64, false)
	r := c.Access(128, false)
	if !r.Writeback || r.WritebackAddr != 0 {
		t.Fatalf("store hit must dirty the line: %+v", r)
	}
}

func TestHitHistogram(t *testing.T) {
	c := mustNew(t, 4*64, 4)
	c.Access(0, false)
	c.Access(0, false) // hit at MRU (pos 0)
	c.Access(64, false)
	c.Access(0, false) // hit at pos 1
	st := c.Stats()
	if st.HitsByPos[0] != 1 || st.HitsByPos[1] != 1 {
		t.Fatalf("hit histogram wrong: %v", st.HitsByPos)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("counters wrong: %+v", st)
	}
}

func TestUselessPositions(t *testing.T) {
	c := mustNew(t, 4*64, 4)
	// No hits at all: every position is useless.
	if got := c.UselessPositions(8); got != 4 {
		t.Fatalf("no-hit useless = %d, want 4", got)
	}
	// All hits at MRU: only the MRU position is protected.
	for i := 0; i < 100; i++ {
		c.Access(0, false)
	}
	if got := c.UselessPositions(8); got != 3 {
		t.Fatalf("MRU-only useless = %d, want 3", got)
	}
	// Monotonic in the threshold: a larger eager_threshold shrinks the
	// protected prefix, so the useless count can only grow (§3.1: higher
	// threshold ⇒ more aggressive eager writeback).
	c2 := mustNew(t, 4*64, 4)
	// Skewed reuse so hits spread across positions with a hot head.
	rng := rand.New(rand.NewSource(1))
	addrs := []uint64{0, 64, 128, 192}
	for i := 0; i < 4000; i++ {
		r := rng.Float64()
		j := 0
		switch {
		case r < 0.70:
			j = 0
		case r < 0.90:
			j = 1
		case r < 0.97:
			j = 2
		default:
			j = 3
		}
		c2.Access(addrs[j], false)
	}
	prev := 0
	for _, thr := range []int{1, 2, 4, 8, 16, 32} {
		n := c2.UselessPositions(thr)
		if n < prev {
			t.Fatalf("UselessPositions not monotonic: thr=%d gives %d < %d", thr, n, prev)
		}
		prev = n
	}
	if prev == 0 {
		t.Fatal("largest threshold should mark some positions useless")
	}
	if c.UselessPositions(0) != 0 {
		t.Fatal("non-positive threshold must yield 0")
	}
}

func TestNextEagerVictim(t *testing.T) {
	c := mustNew(t, 4*64, 4)
	dirtyAddr := uint64(0)
	c.Access(dirtyAddr, true)
	// Push the dirty line toward LRU.
	c.Access(64*4, false)
	c.Access(64*8, false)
	c.Access(64*12, false)

	if _, ok := c.NextEagerVictim(0, 0); ok {
		t.Fatal("uselessN=0 must find nothing")
	}
	addr, ok := c.NextEagerVictim(4, 0)
	if !ok || addr != dirtyAddr {
		t.Fatalf("eager victim = %#x,%v, want %#x", addr, ok, dirtyAddr)
	}
	if c.DirtyLines() != 0 {
		t.Fatal("eager writeback must clean the line")
	}
	// No more dirty lines: scan finds nothing.
	if _, ok := c.NextEagerVictim(4, 0); ok {
		t.Fatal("no dirty lines left")
	}
	// Re-dirty: the line is eligible again (the earlier eager write was
	// wasted wear).
	c.Access(dirtyAddr, true)
	if _, ok := c.NextEagerVictim(4, 0); !ok {
		t.Fatal("re-dirtied line must be found")
	}
	if c.Stats().EagerWrites != 2 {
		t.Fatalf("eager counter = %d, want 2", c.Stats().EagerWrites)
	}
}

func TestEagerVictimRespectsPositions(t *testing.T) {
	c := mustNew(t, 4*64, 4)
	c.Access(0, true) // dirty, currently MRU
	// Only the single LRU position is useless; the dirty line is at MRU.
	if _, ok := c.NextEagerVictim(1, 0); ok {
		t.Fatal("MRU dirty line must not be harvested with uselessN=1")
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := mustNew(t, 4*64, 4)
	c.Access(0, true)
	c.Access(64, false)
	cl := c.Clone()
	if cl.DirtyLines() != c.DirtyLines() || cl.Stats().Misses != c.Stats().Misses {
		t.Fatal("clone state mismatch")
	}
	// Mutating the original must not affect the clone.
	c.Access(128, true)
	c.Access(192, true)
	if cl.Stats().Misses == c.Stats().Misses {
		t.Fatal("clone aliases original stats")
	}
	before := cl.DirtyLines()
	c.NextEagerVictim(4, 0)
	if cl.DirtyLines() != before {
		t.Fatal("clone aliases original lines")
	}
}

// Property: counters are consistent with the access stream, and writebacks
// never exceed misses.
func TestCounterConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(16*64*4, 4)
		if err != nil {
			return false
		}
		n := 2000
		wbSeen := uint64(0)
		for i := 0; i < n; i++ {
			addr := uint64(rng.Intn(256)) * 64
			r := c.Access(addr, rng.Intn(2) == 0)
			if r.Writeback {
				wbSeen++
				if r.WritebackAddr%64 != 0 {
					return false
				}
			}
		}
		st := c.Stats()
		if st.Hits+st.Misses != uint64(n) {
			return false
		}
		if st.Writebacks != wbSeen || st.Writebacks > st.Misses {
			return false
		}
		var histSum uint64
		for _, h := range st.HitsByPos {
			histSum += h
		}
		return histSum == st.Hits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a victim's reconstructed writeback address maps back to the set
// it was evicted from.
func TestWritebackAddressMapsToSameSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(8*64*2, 2) // 8 sets, 2 ways
		if err != nil {
			return false
		}
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(64)) * 64
			r := c.Access(addr, true)
			if r.Writeback {
				wbSet := (r.WritebackAddr / 64) % 8
				inSet := (addr / 64) % 8
				if wbSet != inSet {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// DirtyLines counts the dirty lines currently resident (an observation helper
// for tests).
func (c *Cache) DirtyLines() int {
	n := 0
	for _, m := range c.dirty {
		n += bits.OnesCount64(m)
	}
	return n
}
