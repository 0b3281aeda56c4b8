package nvm

import (
	"testing"

	"mct/internal/cache"
	"mct/internal/config"
	"mct/internal/rng"
	"mct/internal/trace"
)

// memCall is one recorded call into the controller, with its result.
type memCall struct {
	kind      uint8 // callRead, callWrite or callEager
	addr, now uint64
	result    uint64 // completion or acceptance time; 1/0 for an eager offer
}

const (
	callRead = iota
	callWrite
	callEager
)

// recordBusy runs accesses of the gups workload through a 2 MiB 16-way LLC
// onto a live controller under cfg, as a busy gups-like synthetic stream:
// the caller's clock advances 0.1 memory cycle per instruction, waits out
// write backpressure and half of each read's latency, and offers one eager
// victim per access while the eager queue has room. The first half warms
// the LLC and the controller; it returns a clone of the controller at that
// point and the calls of the second half.
func recordBusy(tb testing.TB, cfg config.Config, accesses int) (*Controller, []memCall) {
	tb.Helper()
	spec, err := trace.ByName("gups")
	if err != nil {
		tb.Fatal(err)
	}
	gen := trace.NewGenerator(spec, rng.NewRand(1))
	llc, err := cache.New(2<<20, 16)
	if err != nil {
		tb.Fatal(err)
	}
	c := mustNew(tb, cfg, DefaultParams())

	var warm *Controller
	var calls []memCall
	rec := func(call memCall) {
		if warm != nil {
			calls = append(calls, call)
		}
	}
	clk := 0.0 // caller time in memory cycles
	for i := 0; i < accesses; i++ {
		if i == accesses/2 {
			warm = c.Clone()
		}
		a := gen.Next()
		clk += float64(a.InstGap) / 10
		res := llc.Access(a.Addr, a.Write)
		if !res.Hit {
			now := uint64(clk)
			if res.Writeback {
				acc := c.Write(res.WritebackAddr, now)
				rec(memCall{callWrite, res.WritebackAddr, now, acc})
				now = acc
			}
			done := c.Read(res.FillAddr, now)
			rec(memCall{callRead, res.FillAddr, now, done})
			clk = float64(now) + float64(done-now)/2
		}
		if cfg.EagerWritebacks && c.EagerSpace() {
			if useless := llc.UselessPositions(cfg.EagerThreshold); useless > 0 {
				if addr, ok := llc.NextEagerVictim(useless, 32); ok {
					now := uint64(clk)
					var accepted uint64
					if c.EagerWrite(addr, now) {
						accepted = 1
					}
					rec(memCall{callEager, addr, now, accepted})
				}
			}
		}
	}
	return warm, calls
}

// replay issues one recorded call and returns its result.
func replay(c *Controller, call memCall) uint64 {
	switch call.kind {
	case callRead:
		return c.Read(call.addr, call.now)
	case callWrite:
		return c.Write(call.addr, call.now)
	}
	if c.EagerWrite(call.addr, call.now) {
		return 1
	}
	return 0
}

// BenchmarkControllerBusy replays a recorded gups-like miss stream into a
// warm controller under the static baseline (bank-aware and eager mellow
// writes with wear quota), in ns per controller call. Eager writes clean
// the LLC's victims, so the replayed half is reads and eager writes, about
// a third of which a read cancels. It isolates the controller from trace generation and
// the LLC, so changes to its scheduling can be timed directly.
func BenchmarkControllerBusy(b *testing.B) {
	warm, calls := recordBusy(b, config.StaticBaseline(), 100_000)
	c := warm.Clone()
	for i, call := range calls {
		if got := replay(c, call); got != call.result {
			b.Fatalf("replayed call %d returned %d, recorded %d", i, got, call.result)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(calls)
		if k == 0 {
			b.StopTimer()
			c = warm.Clone()
			b.StartTimer()
		}
		replay(c, calls[k])
	}
}
