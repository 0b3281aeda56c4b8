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

func TestRunQuadraticLassoModel(t *testing.T) {
	o := quickRuntimeOptions()
	o.Model = "quadratic-lasso"
	rt, _ := newRuntime(t, "leslie3d", Default(8), o)
	if _, err := rt.Run(2_500_000); err != nil {
		t.Fatal(err)
	}
}

// TestBaselineCarriesObjectiveTarget: the runtime normalizes against and
// health-checks with Objective.Baseline, the static policy at the lifetime
// floor, which is also what callers run as their static reference.
func TestBaselineCarriesObjectiveTarget(t *testing.T) {
	for _, lt := range []float64{4, 6, 8} {
		want := config.StaticBaseline()
		want.WearQuotaTarget = lt
		obj := Default(lt)
		if got := obj.Baseline(); got != want {
			t.Errorf("Default(%g).Baseline() = %v, want %v", lt, got, want)
		}
		rt, _ := newRuntime(t, "lbm", obj, quickRuntimeOptions())
		if rt.baseline != want {
			t.Errorf("runtime baseline at %gy = %v, want %v", lt, rt.baseline, want)
		}
	}
	if got := (Objective{}).Baseline(); got != config.StaticBaseline() {
		t.Errorf("baseline without a lifetime floor = %v, want the static baseline", got)
	}
}

// TestScaledTo: the budgets fit a short run at the 1:2 sampling:testing
// split, and DefaultOptions already fits the 15M-instruction default.
func TestScaledTo(t *testing.T) {
	if got := DefaultOptions().ScaledTo(15_000_000); !reflect.DeepEqual(got, DefaultOptions()) {
		t.Errorf("ScaledTo(15M) = %+v, want DefaultOptions", got)
	}
	got := DefaultOptions().ScaledTo(2_000_000)
	if got.SamplingTotalInsts != 666_666 || got.BaselineInsts != 100_000 || got.SampleUnitInsts != 6_666 {
		t.Errorf("ScaledTo(2M) budgets: sampling %d, baseline %d, unit %d; want 666666, 100000, 6666",
			got.SamplingTotalInsts, got.BaselineInsts, got.SampleUnitInsts)
	}
	// The floors hold at tiny runs.
	got = DefaultOptions().ScaledTo(10_000)
	if got.SamplingTotalInsts != 100_000 || got.BaselineInsts != 50_000 || got.SampleUnitInsts != 2_000 {
		t.Errorf("ScaledTo(10k) budgets: sampling %d, baseline %d, unit %d; want the floors 100000, 50000, 2000",
			got.SamplingTotalInsts, got.BaselineInsts, got.SampleUnitInsts)
	}
}

// TestScaledRunReachesTesting: a 2M-instruction run on the unscaled
// defaults spends every instruction sampling, and the same run with scaled
// budgets learns and then tests for most of the run.
func TestScaledRunReachesTesting(t *testing.T) {
	const insts = 2_000_000
	run := func(o Options) Result {
		rt, _ := newRuntime(t, "lbm", Default(8), o)
		res, err := rt.Run(insts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(DefaultOptions()); res.Testing.Instructions != 0 {
		t.Errorf("unscaled defaults tested %d instructions of %d; want none (sampling takes the run)", res.Testing.Instructions, insts)
	}
	res := run(DefaultOptions().ScaledTo(insts))
	if res.Testing.Instructions < insts/2 || res.Testing.IPC <= 0 {
		t.Fatalf("scaled run tested %d instructions at IPC %.3f; want at least half the run", res.Testing.Instructions, res.Testing.IPC)
	}
	if d := res.Phases[0].Decision; d.ChosenIndex < 0 {
		t.Fatal("scaled run chose no configuration")
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
	// The detector interval Figure 6 uses on ocean.
	o.TestChunkInsts = 25_000
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
