package sim

import (
	"reflect"
	"runtime"
	"testing"

	"mct/internal/config"
	"mct/internal/rng"
	"mct/internal/trace"
)

// TestTraceDefensiveCopy: the slice Trace returns is caller-owned — mutating
// it must perturb neither later evaluations nor later Trace calls. (The
// pre-streaming implementation handed out its internal measurement slice;
// a caller writing through it silently corrupted every subsequent
// evaluation.)
func TestTraceDefensiveCopy(t *testing.T) {
	p, err := Prepare("lbm", 2000, 4000, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	before, err := p.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	tr := p.Trace()
	want := append([]trace.Access(nil), tr...)
	for i := range tr {
		tr[i] = trace.Access{InstGap: 1, Addr: 0xDEAD_0000, Write: true}
	}

	after, err := p.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Error("mutating the slice returned by Trace changed a later evaluation")
	}
	if got := p.Trace(); !reflect.DeepEqual(got, want) {
		t.Error("mutating the slice returned by Trace changed a later Trace call")
	}
}

// TestTraceIsTheMeasurementStream: the stream Trace materializes is exactly
// what evaluations measure — replaying it on a clone of the warm state
// yields the byte-identical metrics of Evaluate.
func TestTraceIsTheMeasurementStream(t *testing.T) {
	p, err := Prepare("ocean", 3000, 5000, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	streamed, err := p.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Replay the materialized trace on a fresh clone of the warm machine.
	m := p.warm.Clone()
	if err := m.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	m.beginWindow()
	m.StepBatch(p.Trace())
	m.finishRun()
	replayed := m.windowMetrics()

	if !reflect.DeepEqual(streamed, replayed) {
		t.Errorf("materialized-trace replay diverged from the streamed evaluation:\n%+v\nvs\n%+v", streamed, replayed)
	}
}

// TestStepBatchMatchesRunAccesses: stepping a machine through StepBatch
// over a materialized slice of its stream equals stepping an identical
// machine from its own generator. Evaluate's shared-prefix replay relies on
// this equivalence.
func TestStepBatchMatchesRunAccesses(t *testing.T) {
	const n = 30_000
	cancel := config.Default()
	cancel.FastCancellation = true
	cancel.SlowCancellation = true
	for _, tc := range []struct {
		bench string
		cfg   config.Config
	}{
		{"milc", config.Default()},
		{"gups", cancel},
	} {
		t.Run(tc.bench, func(t *testing.T) {
			spec, err := trace.ByName(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			opt := DefaultOptions()
			run := func(step func(m *Machine) Metrics) Metrics {
				m, err := NewMachine(spec, tc.cfg, opt)
				if err != nil {
					t.Fatal(err)
				}
				return step(m)
			}
			own := run(func(m *Machine) Metrics { return m.RunAccesses(n) })
			replayed := run(func(m *Machine) Metrics {
				m.beginWindow()
				m.StepBatch(trace.Collect(trace.NewGenerator(spec, rng.NewRand(opt.Seed)), n))
				return m.windowMetrics()
			})
			if !reflect.DeepEqual(own, replayed) {
				t.Errorf("StepBatch over the materialized stream diverged from RunAccesses:\n%+v\nvs\n%+v", replayed, own)
			}
		})
	}
}

// TestPreparedEvaluateMemoryBounded: an evaluation allocates the same
// amount however long its measurement stream is, because the stream is
// regenerated batch by batch from the clone's generator and never
// materialized (a materialized 1M-access trace alone would be 24 MB).
func TestPreparedEvaluateMemoryBounded(t *testing.T) {
	const maxGrowth = 64 << 10
	for _, tiers := range []config.TierConfig{{}, {DRAMCache: true}} {
		opt := DefaultOptions()
		opt.Tiers = tiers
		alloc := func(measure int) uint64 {
			p, err := Prepare("lbm", 0, measure, opt)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := p.Evaluate(config.Default()); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		short, long := alloc(50_000), alloc(1_000_000)
		t.Logf("DRAMCache=%v: %d B at 50k accesses, %d B at 1M", tiers.DRAMCache, short, long)
		if long > short+maxGrowth {
			t.Errorf("DRAMCache=%v: evaluation allocated %d B at 1M accesses vs %d B at 50k; growth over %d B means the stream is not bounded",
				tiers.DRAMCache, long, short, maxGrowth)
		}
	}
}
