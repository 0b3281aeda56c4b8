package mct_test

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mct"
)

// TestMetricsDumpWorkerInvariance is the determinism headline of the
// observability layer: the stable dump of a parallel evaluation is
// byte-identical at one worker, four workers and GOMAXPROCS workers.
func TestMetricsDumpWorkerInvariance(t *testing.T) {
	ctx := context.Background()
	space := mct.NewSpace(mct.SpaceOptions{})
	var cfgs []mct.Config
	for i := 0; i < space.Len(); i += 200 {
		cfgs = append(cfgs, space.At(i))
	}

	dumpAt := func(workers int) ([]byte, []mct.Metrics) {
		reg := mct.NewRegistry()
		ms, err := mct.EvaluateMany(ctx, "lbm", 20_000, cfgs,
			mct.WithWorkers(workers), mct.WithObserver(reg))
		if err != nil {
			t.Fatal(err)
		}
		return reg.DumpJSON(), ms
	}

	d1, m1 := dumpAt(1)
	d4, m4 := dumpAt(4)
	dMax, _ := dumpAt(runtime.GOMAXPROCS(0))

	if !bytes.Equal(d1, d4) {
		t.Errorf("dump differs between 1 and 4 workers:\n-- workers=1\n%s\n-- workers=4\n%s", d1, d4)
	}
	if !bytes.Equal(d1, dMax) {
		t.Errorf("dump differs between 1 and GOMAXPROCS workers")
	}
	for i := range m1 {
		if !reflect.DeepEqual(m1[i], m4[i]) {
			t.Fatalf("metrics differ between worker counts at %d: %+v vs %+v", i, m1[i], m4[i])
		}
	}
	if !strings.Contains(string(d1), `"engine.tasks_completed"`) {
		t.Errorf("engine family missing from dump:\n%s", d1)
	}
	// The wall-clock instruments are volatile: visible in the full dump,
	// banned from the stable one.
	if strings.Contains(string(d1), "engine.task_seconds") {
		t.Errorf("volatile instrument leaked into the stable dump:\n%s", d1)
	}
}

// TestRuntimeMetricsFamilies runs the full MCT stack against one registry
// and checks every layer's family shows up in the dump.
func TestRuntimeMetricsFamilies(t *testing.T) {
	ctx := context.Background()
	reg := mct.NewRegistry()
	m, err := mct.NewMachine(ctx, "lbm", mct.StaticBaseline(), mct.WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	ro := mct.DefaultRuntimeOptions()
	ro.SamplingTotalInsts = 900_000
	ro.SampleUnitInsts = 10_000
	ro.BaselineInsts = 100_000
	rt, err := mct.NewRuntime(ctx, m, mct.DefaultObjective(8),
		mct.WithRuntimeOptions(ro), mct.WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	m.SyncObserver()

	dump := string(reg.DumpJSON())
	for _, want := range []string{
		`"cache.hits"`, `"nvm.reads"`, `"core.phases"`, `"core.decisions"`,
		`"sim.windows"`,
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %s:\n%s", want, dump)
		}
	}
	if reg.Counter("core.phases").Value() == 0 {
		t.Error("runtime finished but core.phases is zero")
	}
	// Dumping is repeatable: two dumps of an idle registry are identical.
	if !bytes.Equal(reg.DumpJSON(), reg.DumpJSON()) {
		t.Error("dump is not stable across calls")
	}
}

// TestObserverDoesNotPerturbRuntime: attaching a registry to the machine
// and the runtime leaves every MCT result unchanged — the layer only reads
// cumulative stats at window boundaries.
func TestObserverDoesNotPerturbRuntime(t *testing.T) {
	ctx := context.Background()
	run := func(opts ...mct.Option) mct.Result {
		m, err := mct.NewMachine(ctx, "lbm", mct.StaticBaseline(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		ro := mct.DefaultRuntimeOptions()
		ro.SamplingTotalInsts = 900_000
		ro.SampleUnitInsts = 10_000
		ro.BaselineInsts = 100_000
		rt, err := mct.NewRuntime(ctx, m, mct.DefaultObjective(8),
			append(opts, mct.WithRuntimeOptions(ro))...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run(4_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	reg := mct.NewRegistry()
	observed := run(mct.WithObserver(reg))
	if reg.Counter("core.decisions").Value() == 0 {
		t.Fatal("the observed run published no decisions; the registry was not attached")
	}
	if bare := run(); !reflect.DeepEqual(bare, observed) {
		t.Errorf("attaching a registry changed the MCT result:\nbare     %+v\nobserved %+v", bare, observed)
	}
}

// TestRuntimeTraceSink: RuntimeOptions.Events receives the runtime's
// decision trace (baseline, sampling, decision events) with the runtime
// scope.
func TestRuntimeTraceSink(t *testing.T) {
	ctx := context.Background()
	var (
		mu    sync.Mutex
		kinds = map[string]int{}
	)
	sink := func(e mct.TraceEvent) {
		mu.Lock()
		kinds[e.Kind]++
		mu.Unlock()
	}
	m, err := mct.NewMachine(ctx, "gups", mct.StaticBaseline())
	if err != nil {
		t.Fatal(err)
	}
	ro := mct.DefaultRuntimeOptions()
	ro.SamplingTotalInsts = 900_000
	ro.SampleUnitInsts = 10_000
	ro.BaselineInsts = 100_000
	ro.Events = sink
	rt, err := mct.NewRuntime(ctx, m, mct.DefaultObjective(8), mct.WithRuntimeOptions(ro))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"baseline", "sampling", "decision"} {
		if kinds[k] == 0 {
			t.Errorf("no %q trace events received (got %v)", k, kinds)
		}
	}
}

// TestFacadeContextCancellation: a cancelled context short-circuits every
// context-first entry point.
func TestFacadeContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mct.NewMachine(ctx, "lbm", mct.StaticBaseline()); err == nil {
		t.Error("NewMachine ignored a cancelled context")
	}
	if _, err := mct.Evaluate(ctx, "lbm", 1_000, mct.DefaultConfig()); err == nil {
		t.Error("Evaluate ignored a cancelled context")
	}
	if _, err := mct.EvaluateMany(ctx, "lbm", 1_000, []mct.Config{mct.DefaultConfig()}); err == nil {
		t.Error("EvaluateMany ignored a cancelled context")
	}
}

// TestCheckpointCarriesRegistry: the public checkpoint surface round-trips
// an attached registry (the sim-level equality test lives with the sim
// package; this asserts the facade exposes it).
func TestCheckpointCarriesRegistry(t *testing.T) {
	ctx := context.Background()
	reg := mct.NewRegistry()
	m, err := mct.NewMachine(ctx, "milc", mct.StaticBaseline(), mct.WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	m.RunInstructions(300_000)
	path := t.TempDir() + "/m.ckpt"
	if err := mct.SaveCheckpoint(path, m); err != nil {
		t.Fatal(err)
	}
	b, err := mct.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Observer() == nil {
		t.Fatal("restored machine lost its registry")
	}
	if !bytes.Equal(reg.DumpJSON(), b.Observer().DumpJSON()) {
		t.Error("restored registry dump differs from the saved machine's")
	}
}
