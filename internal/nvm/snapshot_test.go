package nvm

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mct/internal/config"
)

// applyTraffic drives a deterministic mixed op sequence derived from seed,
// starting at time start, and returns the final time. Used to replay the
// identical workload onto a controller and its clone/restored twin.
func applyTraffic(c *Controller, seed int64, n int, start uint64) uint64 {
	rng := rand.New(rand.NewSource(seed))
	now := start
	for i := 0; i < n; i++ {
		now += uint64(rng.Intn(120))
		addr := uint64(rng.Intn(1<<14)) * 64
		switch rng.Intn(4) {
		case 0, 1:
			c.Read(addr, now)
		case 2:
			c.Write(addr, now)
		default:
			c.EagerWrite(addr, now)
		}
	}
	return now
}

// observable flattens everything a controller exposes for equality checks.
type observable struct {
	Now       uint64
	WriteQLen int
	EagerQLen int
	Stats     Stats
	Config    config.Config
}

func observe(c *Controller) observable {
	return observable{
		Now:       c.Now(),
		WriteQLen: c.WriteQueueLen(),
		EagerQLen: c.EagerQueueLen(),
		Stats:     c.Stats(),
		Config:    c.Config(),
	}
}

// TestControllerCloneEquivalence: a clone taken mid-simulation, driven with
// the identical remaining workload, produces byte-identical observable
// state — including after a full drain.
func TestControllerCloneEquivalence(t *testing.T) {
	for _, cfg := range []config.Config{
		config.Default(),
		config.StaticBaseline(),
	} {
		c := mustNew(t, cfg, smallParams())
		mid := applyTraffic(c, 11, 800, 0)

		cl := c.Clone()
		endA := applyTraffic(c, 12, 800, mid)
		endB := applyTraffic(cl, 12, 800, mid)
		if endA != endB {
			t.Fatalf("replay times diverged: %d vs %d", endA, endB)
		}
		c.Drain(endA)
		cl.Drain(endB)
		if a, b := observe(c), observe(cl); !reflect.DeepEqual(a, b) {
			t.Errorf("clone diverged from parent under identical traffic\nparent: %+v\nclone:  %+v", a, b)
		}
	}
}

// TestControllerCloneIsolation: churning a clone leaves every observable
// bit of the parent untouched.
func TestControllerCloneIsolation(t *testing.T) {
	c := mustNew(t, config.StaticBaseline(), smallParams())
	mid := applyTraffic(c, 21, 600, 0)

	before := observe(c)
	cl := c.Clone()
	end := applyTraffic(cl, 22, 2000, mid)
	cl.Drain(end)
	if err := cl.SetConfig(config.Default()); err != nil {
		t.Fatal(err)
	}
	if after := observe(c); !reflect.DeepEqual(before, after) {
		t.Errorf("clone activity perturbed the parent\nbefore: %+v\nafter:  %+v", before, after)
	}
}

// TestControllerSnapshotRoundTrip: FromSnapshot(c.Snapshot()) continues the
// identical simulation, including in-flight ops and queued writes.
func TestControllerSnapshotRoundTrip(t *testing.T) {
	c := mustNew(t, config.StaticBaseline(), smallParams())
	mid := applyTraffic(c, 31, 900, 0)

	r, err := FromSnapshot(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	endA := applyTraffic(c, 32, 900, mid)
	endB := applyTraffic(r, 32, 900, mid)
	c.Drain(endA)
	r.Drain(endB)
	if a, b := observe(c), observe(r); !reflect.DeepEqual(a, b) {
		t.Errorf("snapshot round trip diverged\noriginal: %+v\nrestored: %+v", a, b)
	}
}

// TestFromSnapshotValidates rejects geometry-inconsistent snapshots rather
// than building a controller that would index out of bounds.
func TestFromSnapshotValidates(t *testing.T) {
	c := mustNew(t, config.Default(), smallParams())
	applyTraffic(c, 41, 200, 0)

	good := c.Snapshot()
	if _, err := FromSnapshot(good); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	bad := c.Snapshot()
	bad.Banks = bad.Banks[:len(bad.Banks)-1]
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("bank-count mismatch accepted")
	}

	bad = c.Snapshot()
	bad.Tokens = append(bad.Tokens, 0)
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("token-count mismatch accepted")
	}

	bad = c.Snapshot()
	bad.Stats.WearByBank = nil
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("wear-vector mismatch accepted")
	}
}

// TestFromSnapshotRejectsBadTokenAndQueueLengths keeps two inputs that
// passed the shape checks: an op holding a power token outside the token
// array, which made Read's cancel path index out of range, and a demand
// queue length over empty queues, which sent Write through
// drainUntilSpace's bail-out for an impossible state.
func TestFromSnapshotRejectsBadTokenAndQueueLengths(t *testing.T) {
	c := mustNew(t, config.Default(), smallParams())
	c.Advance(10) // the test's writes enqueue by the snapshot's time
	b := c.bankOf(0)
	// withOp puts a cancellable write pulse holding token tok on line 0's
	// bank, busy until 1000.
	withOp := func(s *Snapshot, tok int) {
		s.Banks[b].Op = &InflightState{Req: WriteReqState{Enq: 10}, PulseStart: 18, Done: 1000, Ratio: 1, Cancellable: true, Token: tok}
		s.Banks[b].FreeAt = 1000
	}
	for _, tc := range []struct {
		name string
		mut  func(*Snapshot)
	}{
		{"token 99", func(s *Snapshot) { withOp(s, 99) }},
		{"token -1", func(s *Snapshot) { withOp(s, -1) }},
		{"WriteQLen 64 over empty queues", func(s *Snapshot) { s.WriteQLen = 64 }},
		{"EagerQLen 3 over empty queues", func(s *Snapshot) { s.EagerQLen = 3 }},
		{"WriteQLen short of the queued writes", func(s *Snapshot) {
			s.Banks[1].Writes = []WriteReqState{{Addr: 1024, Enq: 5}}
		}},
	} {
		s := c.Snapshot()
		tc.mut(&s)
		if _, err := FromSnapshot(s); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The same op with the last valid token restores, and a read cancels it.
	s := c.Snapshot()
	withOp(&s, smallParams().MaxConcurrentWrites-1)
	r, err := FromSnapshot(s)
	if err != nil {
		t.Fatalf("valid op rejected: %v", err)
	}
	r.Read(0, 20)
	if r.Stats().CancelledWrites != 1 || r.WriteQueueLen() != 1 {
		t.Fatalf("restored op not cancelled: %+v", r.Stats())
	}
}

// TestFromSnapshotRejectsImpossibleQueues: queue entries, in-flight ops,
// queue totals and parameters no run can produce are rejected, one case
// each, while the cancelled eager write a Read requeues onto the demand
// queue restores, and so do queues filled to the arena's bound.
func TestFromSnapshotRejectsImpossibleQueues(t *testing.T) {
	c := mustNew(t, config.Default(), smallParams())
	c.Advance(10) // the snapshot's time: the test's writes enqueue by 10
	b := c.bankOf(0)
	p := smallParams()
	limit := p.MaxCancellations
	// queue puts one request on line 0's bank's demand or eager queue.
	queue := func(eagerQ bool, r WriteReqState) func(*Snapshot) {
		return func(s *Snapshot) {
			if eagerQ {
				s.Banks[b].Eager = []WriteReqState{r}
				s.EagerQLen = 1
			} else {
				s.Banks[b].Writes = []WriteReqState{r}
				s.WriteQLen = 1
			}
		}
	}
	// op puts a write pulse from start to done on line 0's bank.
	op := func(r WriteReqState, start, done uint64) func(*Snapshot) {
		return func(s *Snapshot) {
			s.Banks[b].Op = &InflightState{Req: r, PulseStart: start, Done: done, Ratio: 1, Cancellable: true}
			s.Banks[b].FreeAt = done
		}
	}
	// fill queues n demand writes on line 0's bank, or n eager writes.
	fill := func(eagerQ bool, n int) func(*Snapshot) {
		return func(s *Snapshot) {
			rs := make([]WriteReqState, n)
			for i := range rs {
				rs[i] = WriteReqState{Addr: uint64(i) << 20, Enq: 5, Eager: eagerQ}
			}
			if eagerQ {
				s.Banks[b].Eager, s.EagerQLen = rs, n
			} else {
				s.Banks[b].Writes, s.WriteQLen = rs, n
			}
		}
	}
	both := func(fs ...func(*Snapshot)) func(*Snapshot) {
		return func(s *Snapshot) {
			for _, f := range fs {
				f(s)
			}
		}
	}
	for _, tc := range []struct {
		name string
		mut  func(*Snapshot)
		ok   bool
	}{
		{"demand write cancelled past the limit", queue(false, WriteReqState{Enq: 5, Cancels: limit + 1}), false},
		{"eager write cancelled past the limit", queue(true, WriteReqState{Enq: 5, Cancels: limit + 1, Eager: true}), false},
		{"in-flight op cancelled past the limit", op(WriteReqState{Enq: 5, Cancels: limit + 1}, 10, 1000), false},
		{"negative cancel count", queue(false, WriteReqState{Enq: 5, Cancels: -1}), false},
		{"eager queue entry without the eager flag", queue(true, WriteReqState{Enq: 5}), false},
		{"uncancelled eager write on the demand queue", queue(false, WriteReqState{Enq: 5, Eager: true}), false},
		{"in-flight pulse ends before it starts", op(WriteReqState{Enq: 5}, 1000, 10), false},
		{"demand write enqueued after the snapshot's time", queue(false, WriteReqState{Enq: 11}), false},
		{"eager write enqueued after the snapshot's time", queue(true, WriteReqState{Enq: 11, Eager: true}), false},
		{"in-flight op enqueued after the snapshot's time", op(WriteReqState{Enq: 11}, 12, 1000), false},
		{"in-flight pulse ends after its bank frees up", both(op(WriteReqState{Enq: 5}, 10, 1000), func(s *Snapshot) { s.Banks[b].FreeAt = 900 }), false},
		{"demand writes and an in-flight op past the arena bound", both(fill(false, p.WriteQueueCap+p.Banks), op(WriteReqState{Enq: 5}, 10, 1000)), false},
		{"eager writes past the eager queue's capacity", fill(true, p.EagerQueueCap+1), false},
		{"cancel limit past a write's int32 count", func(s *Snapshot) { s.Params.MaxCancellations = math.MaxInt32 + 1 }, false},
		{"demand writes and in-flight ops at the arena bound", both(fill(false, p.WriteQueueCap+p.Banks-1), op(WriteReqState{Enq: 5}, 10, 1000)), true},
		{"a full eager queue", fill(true, p.EagerQueueCap), true},
		{"cancelled eager write on the demand queue", queue(false, WriteReqState{Enq: 5, Cancels: limit, Eager: true}), true},
		{"eager write at the cancel limit", queue(true, WriteReqState{Enq: 5, Cancels: limit, Eager: true}), true},
		{"in-flight op at the cancel limit", op(WriteReqState{Enq: 5, Cancels: limit}, 10, 1000), true},
	} {
		s := c.Snapshot()
		tc.mut(&s)
		if _, err := FromSnapshot(s); (err == nil) != tc.ok {
			t.Errorf("%s: FromSnapshot error %v, want ok=%t", tc.name, err, tc.ok)
		}
	}
}

// TestStatsCloneIsDeep: mutating a cloned Stats' slice/map never shows up
// in the original.
func TestStatsCloneIsDeep(t *testing.T) {
	c := mustNew(t, config.StaticBaseline(), smallParams())
	end := applyTraffic(c, 51, 500, 0)
	c.Drain(end)

	orig := c.Stats()
	cl := orig.Clone()
	if !reflect.DeepEqual(orig, cl) {
		t.Fatalf("clone not equal to original:\n%+v\n%+v", orig, cl)
	}
	if len(cl.WearByBank) == 0 || len(cl.WritesByRatio) == 0 {
		t.Fatal("test traffic produced no writes; wear/ratio maps empty")
	}
	cl.WearByBank[0] += 42
	for k := range cl.WritesByRatio {
		cl.WritesByRatio[k] += 7
	}
	if reflect.DeepEqual(orig.WearByBank, cl.WearByBank) || reflect.DeepEqual(orig.WritesByRatio, cl.WritesByRatio) {
		t.Error("Stats.Clone shares backing storage with the original")
	}
}

// ckptBytes gob-encodes a snapshot as a checkpoint would, less the
// WritesByRatio map, whose gob encoding follows map iteration order; the
// map is compared separately.
func ckptBytes(t *testing.T, s Snapshot) []byte {
	t.Helper()
	s.Stats.WritesByRatio = nil
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameCheckpoint(t *testing.T, what string, a, b Snapshot) {
	t.Helper()
	if !bytes.Equal(ckptBytes(t, a), ckptBytes(t, b)) || !reflect.DeepEqual(a.Stats.WritesByRatio, b.Stats.WritesByRatio) {
		t.Fatalf("%s: checkpoints differ\n got: %+v\nwant: %+v", what, b, a)
	}
}

// TestSnapshotContinuationByteIdentical: a checkpoint cut mid-traffic
// (writes queued and in flight, callers behind the controller's clock in
// the skewed mix) restores into a controller whose continuation matches
// the uninterrupted run call for call and ends in the same checkpoint
// bytes. The bytes at the cut do not depend on which banks the event
// horizon skipped: they equal the tick-sweep reference's.
func TestSnapshotContinuationByteIdentical(t *testing.T) {
	for _, mix := range trafficMixes {
		mix := mix
		t.Run(mix.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				cfgs := spaceWithQuota()
				cfg := cfgs[rng.Intn(len(cfgs))]
				c := mustNew(t, cfg, mix.params())
				r, err := newRef(cfg, mix.params())
				if err != nil {
					t.Fatal(err)
				}
				mid, err := lockstep(rng, mix, cfgs, 700, 0, c, r)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				cut := c.Snapshot()
				sameCheckpoint(t, "at the cut vs reference", r.Snapshot(), cut)

				var decoded Snapshot
				if err := gob.NewDecoder(bytes.NewReader(ckptBytes(t, cut))).Decode(&decoded); err != nil {
					t.Fatal(err)
				}
				decoded.Stats.WritesByRatio = cut.Stats.WritesByRatio
				restored, err := FromSnapshot(decoded)
				if err != nil {
					t.Fatal(err)
				}
				end, err := lockstep(rng, mix, cfgs, 700, mid, c, restored)
				if err != nil {
					t.Fatalf("seed %d: restored run diverged: %v", seed, err)
				}
				if err := drainAll(end, c, restored); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				sameCheckpoint(t, "after the continuation", c.Snapshot(), restored.Snapshot())
			}
		})
	}
}

// TestSnapshotKeepsOpForLaggingReader: a completed write whose bank no
// sweep has passed since is still cancellable by a reader behind the
// controller's clock (a core of a multi-core machine after another core's
// backpressure stall), so the checkpoint must carry it.
func TestSnapshotKeepsOpForLaggingReader(t *testing.T) {
	cfg := config.Default()
	cfg.FastCancellation = true
	cfg.SlowCancellation = true
	c := mustNew(t, cfg, smallParams())
	r, err := newRef(cfg, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []memCtl{c, r} {
		m.Write(0, 100) // issues at once: pulse [108, 168)
		m.Advance(300)  // nothing queued, so no sweep clears the op
	}
	restored, err := FromSnapshot(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	ctls := []memCtl{r, c, restored}
	for _, m := range ctls {
		m.Read(0, 120) // a lagging reader at 20% of the pulse cancels it
	}
	if got := r.Stats().CancelledWrites; got != 1 {
		t.Fatalf("reference cancelled %d writes, want 1", got)
	}
	if err := drainAll(300, ctls...); err != nil {
		t.Fatal(err)
	}
}
