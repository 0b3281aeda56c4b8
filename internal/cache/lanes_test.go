package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// laneSnapshot is Snapshot of lane k: the shared tags, valid bits and hit
// counters with that lane's dirty bits, cursor and writeback counters.
func laneSnapshot(c *Cache, k int) Snapshot {
	s := c.Snapshot()
	for i := range s.Lines {
		set, pos := i/c.ways, i%c.ways
		s.Lines[i].Dirty = c.dirty[set*len(c.lanes)+k]>>pos&1 != 0
	}
	s.EagerCursor = c.lanes[k].eagerCursor
	s.Stats = c.LaneStats(k)
	return s
}

// runLanes warms a cache and a reference together, forks the cache into
// k lanes (copying lane 0 into the others) and the reference into k
// clones, then drives them in lockstep:
// each access steps the shared state once and every lane settles it
// beside its own reference, and each lane harvests eager victims on its
// own schedule, with its own threshold and scan window. Access settles
// lane 0 itself and returns its Result. It reports the first lane that returns
// or holds anything its reference does not.
func runLanes(seed int64, geo [2]int, k, ops int) error {
	ways, sets := geo[0], geo[1]
	size := ways * sets * LineBytes
	c, err := New(size, ways)
	if err != nil {
		return err
	}
	r0, err := newRefCache(size, ways)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	mix := trafficMixes[int(seed)%len(trafficMixes)]
	for i := 0; i < ops/4; i++ {
		addr, write := mix.access(rng, ways*sets)
		c.Access(addr, write)
		r0.Access(addr, write)
	}
	c = c.Fork(k)
	mark := c.MarkLane(0)
	for j := 1; j < k; j++ {
		c.CopyLane(j, 0, mark, 0, false)
	}
	refs := make([]*refCache, k)
	type policy struct {
		threshold, maxSets int
		rate               float64
	}
	pols := make([]policy, k)
	for j := range refs {
		refs[j] = r0.Clone()
		pols[j] = policy{threshold: rng.Intn(40) - 1, maxSets: rng.Intn(sets+3) - 1, rate: rng.Float64()}
	}

	for i := 0; i < ops; i++ {
		addr, write := mix.access(rng, ways*sets)
		res := c.Access(addr, write)
		for j, r := range refs {
			if j > 0 {
				res = c.Settle(j, write)
			}
			if got, want := res, r.Access(addr, write); got != want {
				return fmt.Errorf("op %d lane %d: Settle(%#x, %t) = %+v, reference %+v", i, j, addr, write, got, want)
			}
			if rng.Float64() >= pols[j].rate {
				continue
			}
			p := pols[j]
			u := c.UselessPositions(p.threshold)
			if want := r.UselessPositions(p.threshold); u != want {
				return fmt.Errorf("op %d lane %d: UselessPositions(%d) = %d, reference %d", i, j, p.threshold, u, want)
			}
			ga, gok := c.LaneEagerVictim(j, u, p.maxSets)
			wa, wok := r.NextEagerVictim(u, p.maxSets)
			if ga != wa || gok != wok {
				return fmt.Errorf("op %d lane %d: LaneEagerVictim(%d, %d) = (%#x, %t), reference (%#x, %t)", i, j, u, p.maxSets, ga, gok, wa, wok)
			}
		}
		if i%97 == 0 || i == ops-1 {
			for j, r := range refs {
				if got, want := laneSnapshot(c, j), r.Snapshot(); !reflect.DeepEqual(got, want) {
					return fmt.Errorf("op %d lane %d: state diverged from its reference", i, j)
				}
			}
		}
	}
	return nil
}

// TestLanesLockstepWithReference: lanes of one cache behave exactly like
// independent caches. The premise of batched evaluation is that tags,
// valid masks, LRU order and the hit histogram do not depend on when or
// how a configuration harvests eager victims; here every lane harvests on
// its own random schedule and still returns, access by access, what an
// independent byte-lane reference returns, and holds the same state.
func TestLanesLockstepWithReference(t *testing.T) {
	for _, geo := range geometries {
		for _, k := range []int{1, 3, 8} {
			geo, k := geo, k
			t.Run(fmt.Sprintf("%dx%d/lanes%d", geo[0], geo[1], k), func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					if err := runLanes(seed, geo, k, 2000); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			})
		}
	}
}

// TestForkCopiesLaneZero: lane 0 of a fork starts as lane 0 of the
// original, which the fork leaves untouched; the other lanes start blank
// and CopyLane makes them a copy of lane 0.
func TestForkCopiesLaneZero(t *testing.T) {
	c := mustNew(t, 4*64*8, 4)
	for i := 0; i < 64; i++ {
		c.Access(uint64(i*LineBytes*3), i%3 == 0)
	}
	c.NextEagerVictim(2, 0)
	before := c.Snapshot()
	f := c.Fork(5)
	if !reflect.DeepEqual(laneSnapshot(f, 0), before) {
		t.Fatal("lane 0 of the fork differs from the original")
	}
	mark := f.MarkLane(0)
	for k := 1; k < 5; k++ {
		if s := laneSnapshot(f, k); s.EagerCursor != 0 || s.Stats.Writebacks != 0 || slices.ContainsFunc(s.Lines, func(l LineState) bool { return l.Dirty }) {
			t.Fatalf("lane %d of the fork is not blank", k)
		}
		f.CopyLane(k, 0, mark, 0, false)
		if !reflect.DeepEqual(laneSnapshot(f, k), before) {
			t.Fatalf("lane %d differs from the original after CopyLane", k)
		}
	}
	f.Access(0, false)
	f.Settle(3, true)
	f.LaneEagerVictim(3, 4, 0)
	if !reflect.DeepEqual(c.Snapshot(), before) {
		t.Fatal("stepping the fork changed the original")
	}
}
