package sim

import (
	"testing"

	"mct/internal/config"
	"mct/internal/stats"
	"mct/internal/trace"
)

func mustMulti(t *testing.T, mix string, cfg config.Config) *MultiMachine {
	t.Helper()
	specs, err := trace.MixByName(mix)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := NewMultiMachine(specs, cfg, DefaultMultiOptions())
	if err != nil {
		t.Fatal(err)
	}
	return mm
}

// perCoreIPC returns each core's IPC over the current window, 0 for a core
// that ran no cycles in it.
func perCoreIPC(m *Machine) []float64 {
	ipcs := make([]float64, len(m.cores))
	for i, c := range m.cores {
		if dC := c.cpuCycles - c.winStartCycles; dC > 0 {
			ipcs[i] = float64(c.insts-c.winStartInsts) / dC
		}
	}
	return ipcs
}

func TestMultiOptions(t *testing.T) {
	o := DefaultMultiOptions()
	if o.CacheBytes != 8<<20 || o.Params.Banks != 32 {
		t.Fatalf("multi options wrong: %+v", o)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMultiMachine(nil, config.Default(), o); err == nil {
		t.Fatal("zero cores must fail")
	}
}

// TestMultiMachineSpecCount: the core count is the spec count.
func TestMultiMachineSpecCount(t *testing.T) {
	specs, _ := trace.MixByName("mix1")
	mm, err := NewMultiMachine(specs[:2], config.Default(), DefaultMultiOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mm.Cores() != 2 {
		t.Fatalf("%d cores from 2 specs", mm.Cores())
	}
}

func TestMultiRunBasics(t *testing.T) {
	mm := mustMulti(t, "mix1", config.StaticBaseline())
	mm.Warmup(MultiWarmupAccesses)
	w := mm.RunInstructions(400_000)
	ipcs := perCoreIPC(mm.Machine)
	if len(ipcs) != 4 {
		t.Fatalf("per-core IPCs: %v", ipcs)
	}
	for i, ipc := range ipcs {
		if ipc <= 0 {
			t.Fatalf("core %d IPC = %v", i, ipc)
		}
	}
	if got := stats.GeoMean(ipcs); got != w.IPC {
		t.Fatalf("IPC %v != geomean %v", w.IPC, got)
	}
	if w.Instructions < 400_000 {
		t.Fatalf("total insts %d < target", w.Instructions)
	}
	if w.MemWrites == 0 || w.LifetimeYears >= 1000 {
		t.Fatalf("shared memory saw no writes: %+v", w.Vector())
	}
}

func TestMultiDeterministic(t *testing.T) {
	a := mustMulti(t, "mix3", config.Default())
	b := mustMulti(t, "mix3", config.Default())
	wa := a.RunInstructions(200_000)
	wb := b.RunInstructions(200_000)
	if wa.IPC != wb.IPC || wa.EnergyJ != wb.EnergyJ {
		t.Fatal("multicore run nondeterministic")
	}
}

func TestMultiCoresShareMemoryPressure(t *testing.T) {
	// The same benchmark alone vs alongside heavy co-runners: shared
	// contention must reduce its IPC.
	specs, _ := trace.MixByName("mix1") // contains stream
	mo := DefaultMultiOptions()
	mm, err := NewMultiMachine(specs, config.Default(), mo)
	if err != nil {
		t.Fatal(err)
	}
	mm.Warmup(MultiWarmupAccesses)
	mm.RunInstructions(800_000)

	solo, err := NewMachine(specs[0], config.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	solo.Warmup(60_000)
	alone := solo.RunInstructions(200_000)
	if ipc0 := perCoreIPC(mm.Machine)[0]; ipc0 >= alone.IPC {
		t.Fatalf("co-running %s should cost IPC: %v shared vs %v alone",
			specs[0].Name, ipc0, alone.IPC)
	}
}

func TestMultiSetConfig(t *testing.T) {
	mm := mustMulti(t, "mix2", config.Default())
	if err := mm.SetConfig(config.StaticBaseline()); err != nil {
		t.Fatal(err)
	}
	if mm.Config().SlowLatency != 3.0 {
		t.Fatal("config not applied")
	}
	if mm.Cores() != 4 {
		t.Fatal("core count accessor wrong")
	}
}
