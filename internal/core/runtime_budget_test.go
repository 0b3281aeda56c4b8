package core

import (
	"testing"

	"mct/internal/config"
	"mct/internal/sim"
)

func TestClampBudget(t *testing.T) {
	cases := []struct {
		n, budget, used uint64
		want            uint64
		ok              bool
	}{
		{n: 1000, budget: 5000, used: 0, want: 1000, ok: true},
		{n: 1000, budget: 5000, used: 4500, want: 500, ok: true},
		{n: 1000, budget: 5000, used: 4000, want: 1000, ok: true},
		// Exhausted budget: used == budget and used > budget. Before the
		// clamp was extracted, budget-used underflowed uint64 here and the
		// window ran unclamped.
		{n: 1000, budget: 5000, used: 5000, want: 0, ok: false},
		{n: 1000, budget: 5000, used: 7000, want: 0, ok: false},
		{n: 0, budget: 5000, used: 5000, want: 0, ok: false},
	}
	for _, c := range cases {
		got, ok := clampBudget(c.n, c.budget, c.used)
		if got != c.want || ok != c.ok {
			t.Errorf("clampBudget(%d, %d, %d) = (%d, %t), want (%d, %t)",
				c.n, c.budget, c.used, got, ok, c.want, c.ok)
		}
	}
}

// fakeSystem is a scripted core.System: deterministic IPC per window chosen
// by configuration and progress, zero wear (lifetime pins at the simulator's
// 1000-year cap). It lets the tests steer the runtime into specific code
// paths — health reverts, phase changes, budget overshoot — that real traces
// only hit probabilistically.
type fakeSystem struct {
	opt      sim.Options
	baseline config.Config
	active   config.Config

	total uint64 // instructions executed so far
	calls int

	// degradeAfter > 0 drops non-baseline IPC from 2.2 to 1.0 once total
	// passes it (sampling looks great, testing disappoints → health revert).
	degradeAfter uint64
	// trafficJumpAfter > 0 multiplies memory traffic 10× once total passes
	// it (drives the phase detector).
	trafficJumpAfter uint64
	// instScale > 1 makes every window overshoot its requested length, the
	// way real machines overshoot by finishing whole memory accesses.
	instScale float64
}

func (f *fakeSystem) RunInstructions(n uint64) sim.Metrics {
	f.calls++
	ipc := 2.0
	if f.active != f.baseline {
		ipc = 2.2
		if f.degradeAfter > 0 && f.total >= f.degradeAfter {
			ipc = 1.0
		}
	}
	if f.instScale > 1 {
		n = uint64(float64(n) * f.instScale)
	}
	f.total += n
	instsPerRead := uint64(100)
	if f.trafficJumpAfter > 0 && f.total >= f.trafficJumpAfter {
		instsPerRead = 10
	}
	m := sim.Metrics{
		Instructions:  n,
		CPUCycles:     float64(n) / ipc,
		IPC:           ipc,
		Seconds:       float64(n) / ipc / 3.2e9,
		LifetimeYears: 1000,
		EnergyJ:       float64(n) * 1e-9,
	}
	// A little deterministic jitter keeps the phase detector's variances
	// finite (a perfectly constant history makes the t-score degenerate).
	m.MemReads = n/instsPerRead + uint64(f.calls%3)
	m.MemWrites = n / (2 * instsPerRead)
	return m
}

func (f *fakeSystem) SetConfig(cfg config.Config) error { f.active = cfg; return nil }
func (f *fakeSystem) Options() sim.Options              { return f.opt }
func (f *fakeSystem) Warmup(int) uint64                 { return 0 }

// fakeRuntimeOptions are small budgets tuned to the fakeSystem timeline:
// baseline ends at 100k instructions, and one round of the feature-based
// plan's samples, 10k instructions each, ends sampling at
// fakeTestingStarts; testing runs after.
func fakeRuntimeOptions() Options {
	o := DefaultOptions()
	o.BaselineInsts = 100_000
	o.SampleUnitInsts = 10_000
	o.SamplingTotalInsts = 100_000
	o.TestChunkInsts = 50_000
	o.SampleSettleFrac = 0
	o.WarmupAccesses = 0
	return o
}

// fakeTestingStarts is where the testing period of fakeRuntimeOptions
// begins: the baseline window plus one unit per feature-based sample.
func fakeTestingStarts(rt *Runtime) uint64 {
	return rt.opt.BaselineInsts + uint64(rt.plan().Len())*rt.opt.SampleUnitInsts
}

func newFakeRuntime(t *testing.T, f *fakeSystem, o Options) *Runtime {
	t.Helper()
	f.opt = sim.DefaultOptions()
	rt, err := New(f, Default(8), o)
	if err != nil {
		t.Fatal(err)
	}
	f.baseline = rt.baseline
	f.active = f.baseline
	return rt
}

// TestHealthRevertSwitchesBackToBaseline scripts the §5.4 never-worse
// guarantee: the chosen configuration samples well but degrades during
// testing, so the health check must revert the machine to the baseline and
// leave it there.
func TestHealthRevertSwitchesBackToBaseline(t *testing.T) {
	f := &fakeSystem{}
	rt := newFakeRuntime(t, f, fakeRuntimeOptions())
	start := fakeTestingStarts(rt)
	f.degradeAfter = start

	// Room for two health checks: each follows healthCheckEvery chunks.
	res, err := rt.Run(start + 2*(healthCheckEvery+1)*rt.opt.TestChunkInsts)
	if err != nil {
		t.Fatal(err)
	}
	if res.HealthReverts == 0 {
		t.Fatal("degraded testing IPC must trigger a health revert")
	}
	if !res.Phases[0].Reverted {
		t.Error("phase record must mark the revert")
	}
	if res.Phases[0].Decision.Chosen == f.baseline {
		t.Fatal("test is vacuous: the learner chose the baseline itself")
	}
	if f.active != f.baseline {
		t.Errorf("after a revert the machine must run the baseline, got %+v", f.active)
	}
}

// TestNoHealthRevertWhenChosenHolds is the control: a chosen configuration
// that keeps outperforming the baseline must never be reverted.
func TestNoHealthRevertWhenChosenHolds(t *testing.T) {
	f := &fakeSystem{} // non-baseline stays at IPC 2.2 forever
	rt := newFakeRuntime(t, f, fakeRuntimeOptions())

	res, err := rt.Run(fakeTestingStarts(rt) + 4*(healthCheckEvery+1)*rt.opt.TestChunkInsts)
	if err != nil {
		t.Fatal(err)
	}
	if res.HealthReverts != 0 {
		t.Errorf("healthy chosen configuration reverted %d times", res.HealthReverts)
	}
	if f.active == f.baseline {
		t.Error("machine should still run the chosen configuration")
	}
}

// TestPhaseChangeStartsNewLearningCycle scripts a workload shift mid-testing
// (memory traffic jumps 10×) and checks the detector ends the phase and the
// runtime starts a fresh learning cycle.
func TestPhaseChangeStartsNewLearningCycle(t *testing.T) {
	o := fakeRuntimeOptions()
	o.EnablePhaseDetection = true
	f := &fakeSystem{}
	rt := newFakeRuntime(t, f, o)
	// Jump after a long quiet history: a 10× jump inflates the long
	// window's variance along with its mean, so the Welch score peaks near
	// 60 against 360 quiet intervals but only near 15.4, barely over the
	// threshold of 15, against 80. The detector also observes the
	// baseline chunk each health check adds.
	const quiet = 360
	f.trafficJumpAfter = fakeTestingStarts(rt) + quiet*o.TestChunkInsts

	res, err := rt.Run(f.trafficJumpAfter + 100*o.TestChunkInsts)
	if err != nil {
		t.Fatal(err)
	}
	if res.PhaseChanges == 0 {
		t.Fatal("traffic jump must trigger a phase change")
	}
	if len(res.Phases) < 2 {
		t.Fatalf("phase change must start a new learning cycle, got %d phase(s)", len(res.Phases))
	}
	first := res.Phases[0]
	if !first.PhaseChange {
		t.Error("first phase record must mark the early end")
	}
	if ran := first.Baseline.Instructions + first.Sampling.Instructions + first.Testing.Instructions; ran < f.trafficJumpAfter {
		t.Errorf("first phase ended at %d instructions, before the traffic jump at %d", ran, f.trafficJumpAfter)
	}
}

// TestRunBoundedUnderOvershoot: windows that overshoot their requested
// length (as real machines do by completing whole memory accesses) must not
// blow past the budget — the regression guarded by clampBudget.
func TestRunBoundedUnderOvershoot(t *testing.T) {
	f := &fakeSystem{instScale: 3}
	rt := newFakeRuntime(t, f, fakeRuntimeOptions())

	const budget = 150_000
	res, err := rt.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 1 {
		t.Fatalf("overshot budget must still terminate after one phase, got %d", len(res.Phases))
	}
	// The single baseline window overshoots to 300k and exhausts the budget:
	// nothing else may run.
	if f.calls != 1 {
		t.Errorf("budget exhausted after the first window, yet %d windows ran", f.calls)
	}
	if got := res.Overall.Instructions; got != 300_000 {
		t.Errorf("overall instructions %d, want exactly the one overshot window (300000)", got)
	}
}
