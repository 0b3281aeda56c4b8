package sim

import (
	"context"
	"reflect"
	"testing"

	"mct/internal/config"
	"mct/internal/engine"
	"mct/internal/trace"
)

// Trace materializes the whole measurement access stream into a fresh
// slice, regenerated from a clone of the warm generator, so callers own
// the result outright: mutating it cannot perturb evaluations or the
// shared window.
func (p *Prepared) Trace() []trace.Access {
	return trace.Collect(p.warm.gens[0].Clone(), p.nMeasure)
}

// EvaluateCold measures one configuration the pre-clone way: build a fresh
// machine, replay the entire warmup of warmup accesses (the count p was
// prepared with), and stream the measurement window from the machine's own
// generator, never reading the shared window. It must produce
// byte-identical Metrics to Evaluate — that equivalence is the correctness
// proof of the snapshot contract and of the window replay — and is the
// reference path the tests hold the warm evaluations to.
func (p *Prepared) EvaluateCold(warmup int, cfg config.Config) (Metrics, error) {
	m, err := NewMachine(p.Spec, warmupConfig(), p.opt)
	if err != nil {
		return Metrics{}, err
	}
	m.runOwn(warmup)
	m.settleHierarchy()
	if err := m.SetConfig(cfg); err != nil {
		return Metrics{}, err
	}
	m.beginWindow()
	m.runOwn(p.nMeasure)
	m.finishRun()
	return m.windowMetrics(), nil
}

// TestWarmCloneSweepMatchesColdRebuild is the acceptance criterion of the
// warm-start design at sweep scale: on every benchmark, the quick sweep's
// configurations (every 23rd of the space, 8,000 accesses) plus the
// static baseline and the default, evaluated warm through EvaluateAll at
// Workers=1 and Workers=4, equal a cold rebuild of each (fresh machine and
// full warmup replay per configuration, via EvaluateCold).
func TestWarmCloneSweepMatchesColdRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("cold rebuilds of every benchmark's quick sweep are slow; run without -short")
	}
	space := config.NewSpace(config.SpaceOptions{})
	var cfgs []config.Config
	for _, i := range space.Strided(23) {
		cfgs = append(cfgs, space.At(i))
	}
	base := config.StaticBaseline()
	base.WearQuotaTarget = 8
	cfgs = append(cfgs, base, config.Default())

	for _, bench := range trace.Names() {
		p, err := Prepare(bench, 0, 8_000, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cold, err := engine.Map(context.Background(), len(cfgs), engine.Options{Workers: 4},
			func(_ context.Context, k int) (Metrics, error) { return p.EvaluateCold(DefaultWarmupAccesses, cfgs[k]) })
		if err != nil {
			t.Fatalf("%s cold: %v", bench, err)
		}
		for _, workers := range []int{1, 4} {
			warm, err := p.EvaluateAll(context.Background(), cfgs, engine.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s warm workers=%d: %v", bench, workers, err)
			}
			if !reflect.DeepEqual(warm, cold) {
				t.Errorf("%s: warm sweep at Workers=%d differs from cold rebuild", bench, workers)
			}
		}
	}
}
