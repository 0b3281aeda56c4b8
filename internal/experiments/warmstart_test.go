package experiments

import (
	"context"
	"reflect"
	"testing"

	"mct/internal/config"
	"mct/internal/engine"
	"mct/internal/sim"
)

// TestWarmCloneSweepMatchesColdRebuild is the acceptance criterion of the
// warm-start refactor: for every benchmark in QuickOptions, the warm-clone
// sweep (one warm machine per benchmark, cloned per configuration) is
// identical at Workers=1 and Workers=4 to a cold rebuild of the same
// configurations (fresh machine + full warmup replay per configuration,
// via Prepared.EvaluateCold).
func TestWarmCloneSweepMatchesColdRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("full QuickOptions cold rebuilds are slow; run without -short")
	}
	t.Setenv(cacheEnv, "")
	ResetSweepCache()
	defer ResetSweepCache()

	opt := QuickOptions()
	for _, bench := range opt.Benchmarks {
		var ref *Sweep
		for _, workers := range []int{1, 4} {
			// Warm sweeps at different worker counts share one cache entry;
			// reset so both worker counts are real computations.
			ResetSweepCache()
			warm := opt
			warm.Workers = workers
			got, err := RunSweep(context.Background(), bench, false, warm)
			if err != nil {
				t.Fatalf("%s warm workers=%d: %v", bench, workers, err)
			}
			if ref == nil {
				ref = coldRebuild(t, got, opt)
			}
			if !reflect.DeepEqual(ref.Metrics, got.Metrics) ||
				!reflect.DeepEqual(ref.Baseline, got.Baseline) ||
				!reflect.DeepEqual(ref.Default, got.Default) {
				t.Errorf("%s: warm-clone sweep at Workers=%d differs from cold rebuild", bench, workers)
			}
		}
	}
}

// coldRebuild evaluates s's configurations, baseline and default the
// reference way: every evaluation rebuilds a machine and replays the whole
// warmup.
func coldRebuild(t *testing.T, s *Sweep, opt Options) *Sweep {
	t.Helper()
	simOpt := opt.Sim
	simOpt.Seed = opt.Seed
	prep, err := sim.Prepare(s.Benchmark, 0, opt.Accesses, simOpt)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := engine.Map(context.Background(), len(s.Indices), engine.Options{Workers: 4},
		func(_ context.Context, k int) (sim.Metrics, error) {
			return prep.EvaluateCold(s.Space.At(s.Indices[k]))
		})
	if err != nil {
		t.Fatalf("%s cold: %v", s.Benchmark, err)
	}
	ref := &Sweep{Metrics: metrics}
	if ref.Baseline, err = prep.EvaluateCold(baselineAt(opt.LifetimeTarget)); err != nil {
		t.Fatal(err)
	}
	if ref.Default, err = prep.EvaluateCold(config.Default()); err != nil {
		t.Fatal(err)
	}
	return ref
}
