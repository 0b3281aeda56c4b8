// Allocation gates of the controller's hot path: the in-flight op is held
// by value (no per-issue *inflight), every queued write lives in the queue
// arena New sizes to the most a run can queue (an enqueue, a pop and a
// cancel's requeue at the head relink arena slots), and a full write queue
// stalls without allocating. The controller's issue/read/cancel/
// backpressure cycle allocates nothing, with no warm-up of its queues.
package nvm

import (
	"testing"

	"mct/internal/config"
)

// TestWriteCancelSteadyStateAllocs drives the densest allocation path —
// write issue, cancelling read, re-queue, drain — on a warm controller and
// requires it to be allocation-free per operation.
func TestWriteCancelSteadyStateAllocs(t *testing.T) {
	p := smallParams()
	cfg := config.Default()
	cfg.FastCancellation = true
	cfg.SlowCancellation = true
	c := mustNew(t, cfg, p)

	now := uint64(100)
	cycle := func() {
		// Issue a write, let it start its pulse, cancel it with a read to
		// the same line, then drain so the re-queued write completes and
		// the queue returns to empty (capacity retained).
		now = c.Write(0, now)
		c.Advance(now + 1)
		now = c.Read(0, now+8)
		c.Drain(c.Now())
		if c.Now() > now {
			now = c.Now()
		}
		now++
	}
	// Warm: the first cycles fill the wear-ratio map's keys.
	for i := 0; i < 64; i++ {
		cycle()
	}

	const rounds = 100
	avg := testing.AllocsPerRun(5, func() {
		for i := 0; i < rounds; i++ {
			cycle()
		}
	})
	if perCycle := avg / rounds; perCycle > 0.01 {
		t.Errorf("write/cancel/drain cycle allocates %.4f objects (%.0f per %d cycles); "+
			"the op-by-value and in-place re-queue fixes have regressed", perCycle, avg, rounds)
	}
}

// TestQuotaEagerSetConfigSteadyStateAllocs: the issue path of every write
// class — fast, slow (bank-aware and eager) and forced under an exhausted
// wear quota — plus SetConfig switching between two ratio pairs, which
// folds the per-class write counters into WritesByRatio, allocates nothing
// once the queues and the ratio map are warm.
func TestQuotaEagerSetConfigSteadyStateAllocs(t *testing.T) {
	p := smallParams()
	p.WearQuotaSliceCycles = 2000
	p.LinesPerBank = 3_000_000 // a binding quota: most slices run forced
	a := config.StaticBaseline()
	b := a
	b.FastLatency, b.SlowLatency = 1.5, 2.5
	cfgs := [2]config.Config{a, b}
	c := mustNew(t, a, p)

	now, k := uint64(100), 0
	cycle := func() {
		for i := uint64(0); i < 8; i++ {
			// Three lines of one row: the bank's queue builds, so
			// bank-aware issue goes fast for the middle one.
			for l := uint64(0); l < 3; l++ {
				now = c.Write(i*4096+l*64, now)
			}
			c.EagerWrite(i*4096+1024, now)
			now = c.Read(i*4096+2048, now+3) + 300
		}
		k ^= 1
		if err := c.SetConfig(cfgs[k]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 256; i++ {
		cycle()
	}
	st := c.Stats()
	if st.ForcedWrites == 0 || st.EagerWrites == 0 || st.FastWrites == 0 || len(st.WritesByRatio) < 5 {
		t.Fatalf("warm-up did not reach every write class and ratio: %+v", st)
	}

	const rounds = 50
	avg := testing.AllocsPerRun(5, func() {
		for i := 0; i < rounds; i++ {
			cycle()
		}
	})
	if avg != 0 {
		t.Errorf("quota/eager/SetConfig cycle allocates %.2f objects per %d cycles, want 0", avg, rounds)
	}
}

// TestControllerBusyZeroAllocs: the controller calls of a busy gups-like
// stream (recordBusy's, the one BenchmarkControllerBusy replays: reads,
// demand and eager writes, cancels and direct eager issues on idle banks)
// allocate nothing. The recorded stream is replayed round after round,
// each round shifted past the controller's clock.
func TestControllerBusyZeroAllocs(t *testing.T) {
	warm, calls := recordBusy(t, config.StaticBaseline(), 40_000)
	c := warm.Clone()
	var shift uint64
	round := func() {
		for _, call := range calls {
			call.now += shift
			replay(c, call)
		}
		shift = c.Now() + 1 - calls[0].now
	}
	avg := testing.AllocsPerRun(5, round)
	if avg != 0 {
		t.Errorf("controller allocates %.2f objects per %d calls, want exactly 0", avg, len(calls))
	}
}

// TestQueueFullBackpressureZeroAllocs: a flood of demand writes to one
// bank, issued with no time between them, keeps the write queue full, so
// every Write stalls in drainUntilSpace (backpressure) until the bank
// issues a queued write, then enqueues behind it. The stall loop
// allocates nothing.
func TestQueueFullBackpressureZeroAllocs(t *testing.T) {
	c := mustNew(t, config.StaticBaseline(), smallParams())
	now, addr := uint64(100), uint64(0)
	flood := func(n int) {
		for i := 0; i < n; i++ {
			for c.bankOf(addr) != 0 {
				addr += 64
			}
			now = c.Write(addr, now)
			addr += 64
		}
	}
	flood(2 * c.p.WriteQueueCap) // fill the queue and reach the stall regime

	const rounds = 200
	stalls := c.Stats().QueueFullStalls
	avg := testing.AllocsPerRun(5, func() { flood(rounds) })
	// AllocsPerRun makes one warm-up call before the five it measures.
	if got, want := c.Stats().QueueFullStalls-stalls, uint64(6*rounds); got != want {
		t.Fatalf("%d of %d flooded writes hit a full queue; the gate must stall on every one", got, want)
	}
	if avg != 0 {
		t.Errorf("queue-full backpressure allocates %.2f objects per %d stalled writes, want exactly 0", avg, rounds)
	}
}
