// Regression tests for the hot-path allocation fixes the allochot audit
// drove: the in-flight op is held by value (no per-issue *inflight), and a
// cancellation re-queues the write by shifting the existing queue storage
// in place (no per-cancel slice rebuild). Once the queues are warm, the
// controller's issue/read/cancel cycle allocates nothing.
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
	// Warm: first cycles grow the queue slices to their steady capacity.
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
// each round shifted past the controller's clock. The per-bank queues are
// given their bounded capacity up front: a queue otherwise grows the first
// time it reaches a new depth, which the amortized appends allow and which
// would make the count depend on how long the test warms up.
func TestControllerBusyZeroAllocs(t *testing.T) {
	warm, calls := recordBusy(t, config.StaticBaseline(), 40_000)
	c := warm.Clone()
	for i := range c.banks {
		b := &c.banks[i]
		// A cancel re-queues a write without the capacity check, so the
		// demand queues get headroom past WriteQueueCap.
		b.writes = append(make([]writeReq, 0, c.p.WriteQueueCap+c.p.Banks), b.writes...)
		b.eager = append(make([]writeReq, 0, c.p.EagerQueueCap), b.eager...)
	}
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
