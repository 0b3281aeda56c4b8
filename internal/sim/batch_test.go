package sim

import (
	"context"
	"reflect"
	"testing"

	"mct/internal/config"
	"mct/internal/engine"
	"mct/internal/trace"
)

// batchConfigs is a strided subset of the wear-quota-inclusive space:
// every technique mix, eager thresholds from the whole range, and quota
// targets.
func batchConfigs(stride int) []config.Config {
	space := config.NewSpace(config.SpaceOptions{IncludeWearQuota: true, WearQuotaTarget: 8})
	var cfgs []config.Config
	for _, i := range space.Strided(stride) {
		cfgs = append(cfgs, space.At(i))
	}
	return cfgs
}

// TestEvaluateBatchMatchesSingleAndCold is the equivalence proof of
// batched evaluation: on gups, lbm and zeusmp, NVM-only and with the DRAM
// tier, over a window that streams a tail past the shared prefix, every
// configuration's batched Metrics equal its batch of one (Evaluate) and
// its cold rebuild (EvaluateCold) under reflect.DeepEqual.
func TestEvaluateBatchMatchesSingleAndCold(t *testing.T) {
	cfgs := batchConfigs(397)
	for _, tiers := range []config.TierConfig{{}, {DRAMCache: true}} {
		opt := DefaultOptions()
		opt.Tiers = tiers
		for _, bench := range []string{"gups", "lbm", "zeusmp"} {
			p, err := Prepare(bench, 0, windowCap+17, opt)
			if err != nil {
				t.Fatal(err)
			}
			for start := 0; start < len(cfgs); start += MaxBatch {
				batch := cfgs[start:min(start+MaxBatch, len(cfgs))]
				got, err := p.EvaluateBatch(batch)
				if err != nil {
					t.Fatal(err)
				}
				for k, cfg := range batch {
					one, err := p.Evaluate(cfg)
					if err != nil {
						t.Fatal(err)
					}
					cold, err := p.EvaluateCold(DefaultWarmupAccesses, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got[k], one) || !reflect.DeepEqual(got[k], cold) {
						t.Fatalf("%s dram=%t %+v: batched metrics differ\nbatch: %+v\nsingle: %+v\ncold: %+v",
							bench, tiers.DRAMCache, cfg, got[k], one, cold)
					}
				}
			}
		}
	}
}

// TestEvaluateAllOrderAndProgress: EvaluateAll returns Evaluate's metrics
// in input order at any worker count, and OnDone counts configurations
// 1..n in order.
func TestEvaluateAllOrderAndProgress(t *testing.T) {
	cfgs := batchConfigs(211)
	p, err := Prepare("lbm", 0, 3000, quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Metrics, len(cfgs))
	for i, cfg := range cfgs {
		if want[i], err = p.Evaluate(cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []int{1, 3} {
		var seen []int
		got, err := p.EvaluateAll(context.Background(), cfgs, engine.Options{
			Workers: w,
			OnDone:  func(done, total int) { seen = append(seen, done) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: EvaluateAll differs from Evaluate", w)
		}
		for i, d := range seen {
			if d != i+1 {
				t.Fatalf("workers=%d: OnDone saw %v, want 1..%d", w, seen, len(cfgs))
			}
		}
		if len(seen) != len(cfgs) {
			t.Fatalf("workers=%d: OnDone called %d times for %d configurations", w, len(seen), len(cfgs))
		}
	}
}

// TestBatchStarts: the partition covers every configuration once, in
// order, in batches of at most MaxBatch that shrink toward the tail.
func TestBatchStarts(t *testing.T) {
	if got := batchStarts(0); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("batchStarts(0) = %v", got)
	}
	// A sweep workload's 70 configurations plus baseline and default.
	if got, want := batchStarts(72), []int{0, 8, 16, 24, 32, 40, 48, 54, 59, 63, 66, 68, 69, 70, 71, 72}; !reflect.DeepEqual(got, want) {
		t.Fatalf("batchStarts(72) = %v, want %v", got, want)
	}
	for n := 1; n <= 300; n++ {
		s := batchStarts(n)
		if s[0] != 0 || s[len(s)-1] != n {
			t.Fatalf("batchStarts(%d) = %v does not span [0,%d]", n, s, n)
		}
		for i := 1; i < len(s); i++ {
			size := s[i] - s[i-1]
			if size < 1 || size > MaxBatch || (i > 1 && size > s[i-1]-s[i-2]) {
				t.Fatalf("batchStarts(%d) = %v: batch %d has size %d", n, s, i-1, size)
			}
		}
	}
}

// TestLaneFanOutZeroAllocs: the batched step loop — one LLC probe fanned
// out to MaxBatch configurations, each lane with its own controller and
// eager harvest — allocates nothing at steady state, like the one-lane
// loop (TestBatchedStepLoopZeroAllocs). That holds for distinct
// configurations, which split into lanes of their own, and for a batch
// whose members share lanes: their decision checks, call logs and
// snapshot refreshes reuse their buffers.
func TestLaneFanOutZeroAllocs(t *testing.T) {
	spec, err := trace.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(spec, config.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m.RunAccesses(100_000)
	distinct := batchConfigs(503)[:MaxBatch]
	shared := []config.Config{distinct[0], distinct[1], distinct[0], distinct[1], distinct[2], distinct[0], distinct[2], distinct[1]}
	for name, cfgs := range map[string][]config.Config{"distinct": distinct, "shared": shared} {
		b, err := m.forkBatch(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		buf := b.batchBuf()
		step := func() {
			b.gens[0].Fill(buf)
			b.StepBatch(buf)
		}
		for i := 0; i < 25; i++ {
			step() // steady state: every lane's queue capacities amortized
		}
		eager, members := 0, 0
		for k, l := range b.lanes {
			if b.llc.LaneStats(k).EagerWrites > 0 {
				eager++
			}
			members += len(l.ids) - 1
		}
		if eager == 0 || eager == len(b.lanes) {
			t.Fatalf("%s: %d of %d lanes harvest eager victims; the gate needs lanes that differ", name, eager, len(b.lanes))
		}
		if name == "shared" && members != len(cfgs)-3 {
			t.Fatalf("%s: %d lanes stand for %d configurations; want 3 lanes", name, len(b.lanes), len(cfgs))
		}
		if avg := testing.AllocsPerRun(10, step); avg != 0 {
			t.Errorf("%s: steady-state %d-configuration step loop allocates %.2f objects per %d-access batch, want exactly 0", name, len(cfgs), avg, len(buf))
		}
	}
}

// sweepConfigs is a stride-29 sweep of the space without wear quota, plus
// the 8-year static baseline and the default: the configurations of one
// leg of the _perfbench sweep workloads.
func sweepConfigs() []config.Config {
	space := config.NewSpace(config.SpaceOptions{WearQuotaTarget: 8})
	var cfgs []config.Config
	for _, i := range space.Strided(29) {
		cfgs = append(cfgs, space.At(i))
	}
	base := config.StaticBaseline()
	base.WearQuotaTarget = 8
	return append(cfgs, base, config.Default())
}

// BenchmarkEvaluateBatchSharing runs a stride-29 sweep's batches
// (EvaluateAll at one worker) on zeusmp, whose configurations often decide
// alike, and gups, whose rarely do. It reports lane-steps/config, the
// accesses stepped per configuration summed over lanes (an exact count:
// the window's length when no lane is shared), and ns/config-access. It is
// reported, not gated.
func BenchmarkEvaluateBatchSharing(b *testing.B) {
	const accesses = 30_000
	cfgs := sweepConfigs()
	for _, bench := range []string{"zeusmp", "gups"} {
		b.Run(bench, func(b *testing.B) {
			p, err := Prepare(bench, 0, accesses, DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Evaluate(cfgs[0]); err != nil { // builds the shared window
				b.Fatal(err)
			}
			var steps int
			testSplit = func(at int) { steps += accesses - at }
			defer func() { testSplit = nil }()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				steps = 0
				if _, err := p.EvaluateAll(context.Background(), cfgs, engine.Options{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
			lanes := len(batchStarts(len(cfgs))) - 1 // each batch starts as one lane
			b.ReportMetric(float64(lanes*accesses+steps)/float64(len(cfgs)), "lane-steps/config")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cfgs)*accesses), "ns/config-access")
		})
	}
}
