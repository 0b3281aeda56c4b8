package cache

import (
	"testing"

	"mct/internal/rng"
	"mct/internal/trace"
)

// The harvest benchmark's eager settings: a mid-range eager_threshold from
// the configuration space and the simulator's default scan window.
const (
	harvestThreshold = 16
	harvestScanSets  = 32
)

// warmHarvestLLC returns the simulator's default LLC (2 MiB, 16-way) warmed
// by a zeusmp stream, whose 1 MiB hot set it absorbs, and a recorded
// continuation of that stream.
func warmHarvestLLC(tb testing.TB) (*Cache, []trace.Access) {
	tb.Helper()
	spec, err := trace.ByName("zeusmp")
	if err != nil {
		tb.Fatal(err)
	}
	c, err := New(2<<20, 16)
	if err != nil {
		tb.Fatal(err)
	}
	gen := trace.NewGenerator(spec, rng.NewRand(1))
	for i := 0; i < 200_000; i++ {
		a := gen.Next()
		c.Access(a.Addr, a.Write)
	}
	stream := make([]trace.Access, 1<<14)
	gen.Fill(stream)
	return c, stream
}

// harvest is the per-access LLC work of an eager configuration, as the
// machine's step does it: the access, then at most one eager victim.
func harvest(c *Cache, a trace.Access) {
	c.Access(a.Addr, a.Write)
	if useless := c.UselessPositions(harvestThreshold); useless > 0 {
		c.NextEagerVictim(useless, harvestScanSets)
	}
}

// BenchmarkEagerHarvest measures Access + UselessPositions +
// NextEagerVictim per access on a warm LLC; TestEagerHarvestZeroAllocs pins
// it at exactly 0 allocs/op.
func BenchmarkEagerHarvest(b *testing.B) {
	c, stream := warmHarvestLLC(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harvest(c, stream[i&(len(stream)-1)])
	}
}

// TestEagerHarvestZeroAllocs: the eager harvest runs on most simulated
// accesses of an eager configuration and must allocate nothing.
func TestEagerHarvestZeroAllocs(t *testing.T) {
	c, stream := warmHarvestLLC(t)
	avg := testing.AllocsPerRun(5, func() {
		for _, a := range stream {
			harvest(c, a)
		}
	})
	if avg != 0 {
		t.Errorf("eager harvest allocates %.2f objects per %d accesses, want exactly 0", avg, len(stream))
	}
}
