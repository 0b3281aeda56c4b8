package sim

import (
	"math"
	"testing"

	"mct/internal/config"
	"mct/internal/trace"
)

func quickOptions() Options {
	o := DefaultOptions()
	return o
}

func mustMachine(t *testing.T, bench string, cfg config.Config) *Machine {
	t.Helper()
	spec, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(spec, cfg, quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Options){
		func(o *Options) { o.CacheBytes = 0 },
		func(o *Options) { o.CacheWays = 0 },
		func(o *Options) { o.CacheWays = 128 }, // over the LLC's 64-way mask width
		func(o *Options) { o.CacheBytes = 3 * 64 * 16 },
		func(o *Options) { o.BaseCPI = 0 },
		func(o *Options) { o.CPUCyclesPerMemCycle = 0 },
		func(o *Options) { o.ReadStallFactor = 2 },
		func(o *Options) { o.StoreStallFactor = -1 },
		func(o *Options) { o.Params.Banks = 0 },
		func(o *Options) { o.Energy.NVMReadEnergy = -1 },
	}
	for i, mut := range bad {
		o := DefaultOptions()
		mut(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate options", i)
		}
	}
}

func TestMachineDeterministic(t *testing.T) {
	a := mustMachine(t, "lbm", config.StaticBaseline())
	b := mustMachine(t, "lbm", config.StaticBaseline())
	ma := a.RunInstructions(500_000)
	mb := b.RunInstructions(500_000)
	if ma.IPC != mb.IPC || ma.EnergyJ != mb.EnergyJ || ma.LifetimeYears != mb.LifetimeYears {
		t.Fatalf("nondeterministic: %+v vs %+v", ma.Vector(), mb.Vector())
	}
}

func TestRunInstructionsMeetsTarget(t *testing.T) {
	m := mustMachine(t, "milc", config.Default())
	w := m.RunInstructions(200_000)
	if w.Instructions < 200_000 {
		t.Fatalf("ran %d insts, want ≥ 200000", w.Instructions)
	}
	if w.IPC <= 0 || w.Seconds <= 0 {
		t.Fatalf("degenerate metrics: %+v", w)
	}
}

func TestMetricsVector(t *testing.T) {
	m := Metrics{IPC: 1, LifetimeYears: 2, EnergyJ: 3}
	if m.Vector() != [3]float64{1, 2, 3} {
		t.Fatal("Vector order must be [IPC, lifetime, energy]")
	}
}

func TestWarmupEnablesWrites(t *testing.T) {
	m := mustMachine(t, "stream", config.Default())
	m.Warmup(60_000)
	w := m.RunInstructions(200_000)
	if w.MemWrites == 0 {
		t.Fatal("warmed stream run must produce writebacks")
	}
	if w.LifetimeYears >= 1000 {
		t.Fatalf("warmed lifetime = %v, want finite", w.LifetimeYears)
	}
}

func TestColdCacheProducesNoWritesEarly(t *testing.T) {
	m := mustMachine(t, "stream", config.Default())
	w := m.RunInstructions(50_000) // « cache capacity
	if w.MemWrites != 0 {
		t.Fatalf("cold cache produced %d writes", w.MemWrites)
	}
}

func TestSetConfigChangesBehaviour(t *testing.T) {
	m := mustMachine(t, "lbm", config.Default())
	m.Warmup(60_000)
	fast := m.RunInstructions(300_000)
	slow := config.Default()
	slow.FastLatency = 4.0
	slow.SlowLatency = 4.0
	if err := m.SetConfig(slow); err != nil {
		t.Fatal(err)
	}
	slowW := m.RunInstructions(300_000)
	if slowW.IPC >= fast.IPC {
		t.Fatalf("4x writes must reduce IPC: %v vs %v", slowW.IPC, fast.IPC)
	}
	if slowW.LifetimeYears <= fast.LifetimeYears {
		t.Fatalf("4x writes must extend lifetime: %v vs %v", slowW.LifetimeYears, fast.LifetimeYears)
	}
}

func TestEagerWritebacksActivate(t *testing.T) {
	cfg := config.Default()
	cfg.EagerWritebacks = true
	cfg.EagerThreshold = 32
	cfg.SlowLatency = 2.0
	m := mustMachine(t, "lbm", cfg)
	m.Warmup(60_000)
	w := m.RunInstructions(300_000)
	if w.EagerWrites == 0 {
		t.Fatal("eager mellow writes never issued")
	}
}

func TestCancellationActivates(t *testing.T) {
	cfg := config.StaticBaseline()
	cfg.WearQuota = false
	m := mustMachine(t, "gups", cfg)
	m.Warmup(60_000)
	w := m.RunInstructions(300_000)
	if w.CancelledWrites == 0 {
		t.Fatal("slow cancellation never triggered on gups")
	}
}

func TestWearQuotaForcedWritesUnderStress(t *testing.T) {
	cfg := config.Default()
	cfg.WearQuota = true
	cfg.WearQuotaTarget = 10
	m := mustMachine(t, "gups", cfg) // heavy writer at 1× cannot meet 10y
	m.Warmup(60_000)
	w := m.RunInstructions(800_000)
	if w.ForcedWrites == 0 {
		t.Fatal("wear quota never engaged on an over-budget workload")
	}
}

func TestEvaluateMatchesPrepared(t *testing.T) {
	// Two Prepared evaluations of the same config must agree exactly
	// (clone isolation).
	p, err := Prepare("leslie3d", 40_000, 10_000, quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Evaluate(config.StaticBaseline())
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Evaluate(config.StaticBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC || a.EnergyJ != b.EnergyJ {
		t.Fatalf("prepared evaluations differ: %+v vs %+v", a.Vector(), b.Vector())
	}
	// And a different config must (generally) differ.
	c, err := p.Evaluate(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if c.IPC == a.IPC && c.EnergyJ == a.EnergyJ {
		t.Fatal("distinct configs produced identical metrics — suspicious")
	}
}

func TestPrepareErrors(t *testing.T) {
	if _, err := Prepare("nope", 0, 100, quickOptions()); err == nil {
		t.Fatal("unknown benchmark must fail")
	}
	if _, err := Prepare("lbm", 0, 0, quickOptions()); err == nil {
		t.Fatal("zero measurement must fail")
	}
	o := quickOptions()
	o.CacheBytes = 0
	if _, err := Prepare("lbm", 0, 100, o); err == nil {
		t.Fatal("invalid options must fail")
	}
}

func TestAccumMatchesSingleWindow(t *testing.T) {
	// Running one config in chunks and accumulating must equal running it
	// in one window.
	mkRun := func(chunks int) Metrics {
		m := mustMachine(t, "milc", config.StaticBaseline())
		m.Warmup(60_000)
		if chunks == 1 {
			return m.RunInstructions(400_000)
		}
		acc := NewAccum(m.Options())
		for i := 0; i < chunks; i++ {
			acc.Add(m.RunInstructions(400_000 / uint64(chunks)))
		}
		return acc.Metrics()
	}
	one := mkRun(1)
	four := mkRun(4)
	relErr := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(b), 1e-12) }
	// Instruction boundaries differ slightly; the aggregates must agree
	// closely.
	if relErr(four.IPC, one.IPC) > 0.02 {
		t.Fatalf("accumulated IPC %v vs single %v", four.IPC, one.IPC)
	}
	if relErr(four.EnergyJ, one.EnergyJ) > 0.05 {
		t.Fatalf("accumulated energy %v vs single %v", four.EnergyJ, one.EnergyJ)
	}
	if relErr(four.LifetimeYears, one.LifetimeYears) > 0.1 {
		t.Fatalf("accumulated lifetime %v vs single %v", four.LifetimeYears, one.LifetimeYears)
	}
}

func TestAccumEmpty(t *testing.T) {
	acc := NewAccum(DefaultOptions())
	m := acc.Metrics()
	if m.Instructions != 0 || m.IPC != 0 {
		t.Fatalf("empty accumulator metrics: %+v", m)
	}
	if acc.Windows() != 0 {
		t.Fatal("empty accumulator window count")
	}
}

func TestControllerAccessor(t *testing.T) {
	m := mustMachine(t, "lbm", config.Default())
	if m.Controller() == nil || m.Controller().Config() != config.Default().Canonical() {
		t.Fatal("controller accessor wrong")
	}
	if m.Options().CacheBytes != DefaultOptions().CacheBytes {
		t.Fatal("options accessor wrong")
	}
}
