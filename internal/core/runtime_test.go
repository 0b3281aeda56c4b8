package core

import (
	"fmt"
	"reflect"
	"testing"

	"mct/internal/config"
	"mct/internal/ml"
	"mct/internal/obs"
	"mct/internal/sim"
	"mct/internal/trace"
)

// quickRuntimeOptions shrinks budgets so tests run in milliseconds.
func quickRuntimeOptions() Options {
	o := DefaultOptions()
	o.BaselineInsts = 100_000
	o.SampleUnitInsts = 10_000
	o.SamplingTotalInsts = 900_000
	o.TestChunkInsts = 50_000
	o.WarmupAccesses = 60_000
	return o
}

func newRuntime(t *testing.T, bench string, obj Objective, opt Options) (*Runtime, *sim.Machine) {
	t.Helper()
	spec, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.NewMachine(spec, config.StaticBaseline(), sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(m, obj, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rt, m
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Options){
		func(o *Options) { o.BaselineInsts = 0 },
		func(o *Options) { o.SampleUnitInsts = 0 },
		func(o *Options) { o.SamplingTotalInsts = 0 },
		func(o *Options) { o.TestChunkInsts = 0 },
		func(o *Options) { o.Sampler = SamplerRandom; o.RandomSamples = 0 },
		func(o *Options) { o.HealthMargin = 2 },
		func(o *Options) { o.EnablePhaseDetection = true; o.Phase.Threshold = 0 },
	}
	for i, mut := range bad {
		o := DefaultOptions()
		mut(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate options", i)
		}
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	spec, _ := trace.ByName("lbm")
	m, _ := sim.NewMachine(spec, config.StaticBaseline(), sim.DefaultOptions())
	if _, err := New(m, Objective{RelativeIPCFloor: 5}, DefaultOptions()); err == nil {
		t.Fatal("invalid objective must fail")
	}
	o := DefaultOptions()
	o.Model = "nope"
	if _, err := New(m, Default(8), o); err == nil {
		t.Fatal("unknown model must fail")
	}
}

func TestRunProducesDecisionAndBudget(t *testing.T) {
	rt, _ := newRuntime(t, "lbm", Default(8), quickRuntimeOptions())
	const budget = 3_000_000
	res, err := rt.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) == 0 {
		t.Fatal("no phases executed")
	}
	total := res.Overall.Instructions
	// The budget bounds execution; windows may overrun one chunk.
	if total < budget*95/100 || total > budget+500_000 {
		t.Fatalf("executed %d instructions for a %d budget", total, budget)
	}
	d := res.Phases[0].Decision
	if len(d.SampleIndices) == 0 || len(d.SampleMetrics) == 0 {
		t.Fatal("no samples recorded")
	}
	if d.ChosenIndex < 0 {
		t.Fatal("no configuration chosen")
	}
	// Wear-quota fixup must be applied to the deployed configuration.
	if !d.Chosen.WearQuota || d.Chosen.WearQuotaTarget != 8 {
		t.Fatalf("wear-quota fixup missing: %+v", d.Chosen)
	}
	if res.Testing.Instructions == 0 || res.Sampling.Instructions == 0 {
		t.Fatal("period aggregates empty")
	}
}

func TestRunKeepPredictions(t *testing.T) {
	o := quickRuntimeOptions()
	o.KeepPredictions = true
	rt, _ := newRuntime(t, "milc", Default(8), o)
	res, err := rt.Run(2_500_000)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Phases[0].Decision
	if len(d.Predictions) != rt.Space().Len() {
		t.Fatalf("predictions %d, want %d", len(d.Predictions), rt.Space().Len())
	}
}

func TestRunRandomSampler(t *testing.T) {
	o := quickRuntimeOptions()
	o.Sampler = SamplerRandom
	o.RandomSamples = 30
	rt, _ := newRuntime(t, "stream", Default(8), o)
	res, err := rt.Run(2_500_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Phases[0].Decision.SampleIndices); got != 30 {
		t.Fatalf("random plan size %d, want 30", got)
	}
}

func TestRunQuadraticLassoModel(t *testing.T) {
	o := quickRuntimeOptions()
	o.Model = "quadratic-lasso"
	rt, _ := newRuntime(t, "leslie3d", Default(8), o)
	if _, err := rt.Run(2_500_000); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineCarriesObjectiveTarget(t *testing.T) {
	rt, _ := newRuntime(t, "lbm", Default(6), quickRuntimeOptions())
	if got := rt.Baseline().WearQuotaTarget; got != 6 {
		t.Fatalf("baseline wear-quota target %v, want 6", got)
	}
}

func TestLearningSpaceExcludesWearQuota(t *testing.T) {
	rt, _ := newRuntime(t, "lbm", Default(8), quickRuntimeOptions())
	space := rt.Space()
	for i := 0; i < space.Len(); i++ {
		if space.At(i).WearQuota {
			t.Fatal("learning space must exclude wear quota (§4.4)")
		}
	}
}

func TestTinyBudgetDegradesGracefully(t *testing.T) {
	rt, _ := newRuntime(t, "gups", Default(8), quickRuntimeOptions())
	res, err := rt.Run(150_000) // smaller than baseline window + sampling
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) == 0 {
		t.Fatal("tiny budget must still produce a phase record")
	}
}

func TestPhaseDetectionTriggersRelearning(t *testing.T) {
	o := quickRuntimeOptions()
	o.EnablePhaseDetection = true
	o.Phase.ShortWindows = 4
	o.Phase.LongWindows = 30
	o.Phase.Threshold = 10
	rt, _ := newRuntime(t, "ocean", Default(8), o)
	res, err := rt.Run(20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.PhaseChanges == 0 {
		t.Fatal("ocean must trigger phase changes")
	}
	if len(res.Phases) < 2 {
		t.Fatal("phase change must start a new learning cycle")
	}
}

// TestMultiSystemAdapter pins the adapter's contract: the window is the
// machine's own, with IPC the per-core geomean and CPUCycles rescaled so
// Instructions/CPUCycles reproduces it. The adapter exists because
// *sim.MultiMachine is its own type; neither of these compiles:
//
//	mct.NewRuntime(ctx, mm, obj)  // wants *sim.Machine
//	sim.SaveCheckpoint(path, mm)  // wants *sim.Machine
func TestMultiSystemAdapter(t *testing.T) {
	specs, err := trace.MixByName("mix1")
	if err != nil {
		t.Fatal(err)
	}
	mm, err := sim.NewMultiMachine(specs, config.StaticBaseline(), sim.DefaultMultiOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys := MultiSystem{MM: mm}
	if sys.Options().CacheBytes != 8<<20 {
		t.Fatal("adapter options wrong")
	}
	sys.Warmup(50_000)
	raw := mm.Clone().RunInstructions(100_000)
	w := sys.RunInstructions(100_000)
	if w.Instructions == 0 || w.IPC <= 0 {
		t.Fatalf("adapter run produced %+v", w)
	}
	if w.IPC != raw.IPC {
		t.Fatalf("adapter IPC %v, raw per-core geomean %v", w.IPC, raw.IPC)
	}
	if want := float64(w.Instructions) / w.IPC; w.CPUCycles != want {
		t.Fatalf("adapter CPUCycles %v, want Instructions/IPC = %v", w.CPUCycles, want)
	}
	raw.CPUCycles = w.CPUCycles
	if !reflect.DeepEqual(w, raw) {
		t.Fatalf("adapter changed more than CPUCycles\nadapter: %+v\nraw:     %+v", w, raw)
	}
	if err := sys.SetConfig(config.Default()); err != nil {
		t.Fatal(err)
	}
}

func TestCustomPredictorFactory(t *testing.T) {
	o := quickRuntimeOptions()
	o.NewPredictor = func() (ml.Predictor, error) { return ml.NewLinear(0), nil }
	rt, _ := newRuntime(t, "milc", Default(8), o)
	res, err := rt.Run(2_500_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases[0].Decision.ChosenIndex < 0 {
		t.Fatal("custom predictor made no decision")
	}
	// A failing factory must surface at construction.
	bad := quickRuntimeOptions()
	bad.NewPredictor = func() (ml.Predictor, error) { return nil, fmt.Errorf("boom") }
	spec, _ := trace.ByName("milc")
	m, _ := sim.NewMachine(spec, config.StaticBaseline(), sim.DefaultOptions())
	if _, err := New(m, Default(8), bad); err == nil {
		t.Fatal("factory error must propagate")
	}
}

// TestRuntimeObsRegistersEachField: newRuntimeObs registers one name per
// field (every field is an instrument), so no two fields share, and merge
// into, one metric.
func TestRuntimeObsRegistersEachField(t *testing.T) {
	r := obs.NewRegistry()
	fields := reflect.TypeOf(*newRuntimeObs(r))
	if got, want := len(r.Names()), fields.NumField(); got != want {
		t.Errorf("%d names registered for %d instrument fields: %v", got, want, r.Names())
	}
}
