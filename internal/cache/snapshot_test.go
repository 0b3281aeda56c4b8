package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSnapshotRoundTrip: FromSnapshot(c.Snapshot()) reproduces the exact
// contents, recency order, statistics and eager-scan cursor — the restored
// cache behaves identically under further traffic.
func TestSnapshotRoundTrip(t *testing.T) {
	c := mustNew(t, 16*64*4, 4)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		c.Access(uint64(rng.Intn(1<<12))*64, rng.Intn(3) == 0)
	}
	c.NextEagerVictim(2, 5) // move the cursor off zero

	r, err := FromSnapshot(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Stats(), r.Stats()) {
		t.Fatalf("stats diverged:\n%+v\n%+v", c.Stats(), r.Stats())
	}
	if c.DirtyLines() != r.DirtyLines() {
		t.Fatalf("dirty lines diverged: %d vs %d", c.DirtyLines(), r.DirtyLines())
	}
	// Identical further traffic must produce identical results (recency
	// order and cursor position both matter here).
	rng2 := rand.New(rand.NewSource(8))
	for i := 0; i < 3000; i++ {
		addr := uint64(rng2.Intn(1<<12)) * 64
		w := rng2.Intn(3) == 0
		a, b := c.Access(addr, w), r.Access(addr, w)
		if a != b {
			t.Fatalf("access %d diverged: %+v vs %+v", i, a, b)
		}
		if i%100 == 0 {
			ea, oka := c.NextEagerVictim(2, 3)
			eb, okb := r.NextEagerVictim(2, 3)
			if ea != eb || oka != okb {
				t.Fatalf("eager scan %d diverged: (%x,%t) vs (%x,%t)", i, ea, oka, eb, okb)
			}
		}
	}
}

// TestFromSnapshotValidates rejects inconsistent snapshots.
func TestFromSnapshotValidates(t *testing.T) {
	c := mustNew(t, 8*64*2, 2)
	c.Access(0, true)

	good := c.Snapshot()
	if _, err := FromSnapshot(good); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	bad := c.Snapshot()
	bad.Lines = bad.Lines[:1]
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("line-count mismatch accepted")
	}

	bad = c.Snapshot()
	bad.Stats.HitsByPos = nil
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("histogram mismatch accepted")
	}

	bad = c.Snapshot()
	bad.EagerCursor = 1 << 20
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("out-of-range cursor accepted")
	}

	bad = c.Snapshot()
	if !bad.Lines[0].Dirty {
		t.Fatal("line 0 should hold the dirty fill")
	}
	bad.Lines[0].Valid = false
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("dirty line that is not valid accepted")
	}

	bad = c.Snapshot()
	bad.Stats.Hits++
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("hit total that disagrees with the histogram accepted")
	}

	bad = c.Snapshot()
	bad.SizeBytes = 7
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("invalid geometry accepted")
	}
}
