package sim

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mct/internal/config"
	"mct/internal/trace"
)

// runWindow drives n accesses and returns the window metrics (the full
// observable surface of a machine run).
func runWindow(m *Machine, n int) Metrics {
	return m.RunAccesses(n)
}

// TestMachineCloneEquivalence: a clone taken mid-run and a fresh machine
// replayed to the same point produce byte-identical metrics for the next
// window — the central acceptance criterion of the snapshot contract.
func TestMachineCloneEquivalence(t *testing.T) {
	opt := quickOptions()
	build := func() *Machine {
		m, err := NewMachine(mustSpec(t, "ocean"), config.StaticBaseline(), opt)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	a := build()
	runWindow(a, 30_000) // advance mid-run

	cl := a.Clone()

	b := build() // fresh replay to the same point
	runWindow(b, 30_000)

	wantA := runWindow(a, 20_000)
	gotClone := runWindow(cl, 20_000)
	gotFresh := runWindow(b, 20_000)

	if !reflect.DeepEqual(wantA, gotClone) {
		t.Errorf("clone metrics diverged from parent\nparent: %+v\nclone:  %+v", wantA, gotClone)
	}
	if !reflect.DeepEqual(wantA, gotFresh) {
		t.Errorf("fresh replay diverged from original run\noriginal: %+v\nreplay:   %+v", wantA, gotFresh)
	}
}

// TestMachineCloneIsolation: running and reconfiguring a clone never
// perturbs the parent — the parent's next window is identical whether or
// not the clone was churned (checked against a second pristine clone).
func TestMachineCloneIsolation(t *testing.T) {
	m, err := NewMachine(mustSpec(t, "gups"), config.StaticBaseline(), quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	runWindow(m, 25_000)

	ref := m.Clone() // pristine twin of the parent's state
	churn := m.Clone()
	if err := churn.SetConfig(config.Default()); err != nil {
		t.Fatal(err)
	}
	runWindow(churn, 40_000)

	want := runWindow(ref, 15_000)
	got := runWindow(m, 15_000)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("clone activity perturbed the parent\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestMultiMachineCloneEquivalence mirrors the single-core contract for the
// shared-LLC multi-program machine.
func TestMultiMachineCloneEquivalence(t *testing.T) {
	specs, err := trace.MixByName(trace.MixNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultMultiOptions()
	opt.Seed = 3
	m, err := NewMultiMachine(specs, config.StaticBaseline(), opt)
	if err != nil {
		t.Fatal(err)
	}
	m.Warmup(20_000)

	cl := m.Clone()
	want := m.RunInstructions(200_000)
	got := cl.RunInstructions(200_000)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("multi-machine clone diverged\nparent: %+v\nclone:  %+v", want, got)
	}
}

// TestMultiMachineCloneIsolation: churning a multi-machine clone leaves the
// parent identical to a pristine twin.
func TestMultiMachineCloneIsolation(t *testing.T) {
	specs, err := trace.MixByName(trace.MixNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultMultiOptions()
	opt.Seed = 4
	m, err := NewMultiMachine(specs, config.StaticBaseline(), opt)
	if err != nil {
		t.Fatal(err)
	}
	m.Warmup(15_000)

	ref := m.Clone()
	churn := m.Clone()
	churn.RunInstructions(300_000)

	want := ref.RunInstructions(150_000)
	got := m.RunInstructions(150_000)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("clone activity perturbed the multi-machine parent\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestMachineSnapshotRoundTrip: RestoreMachine(m.Snapshot()) continues the
// identical simulation.
func TestMachineSnapshotRoundTrip(t *testing.T) {
	m, err := NewMachine(mustSpec(t, "leslie3d"), config.StaticBaseline(), quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	runWindow(m, 30_000)

	r, err := RestoreMachine(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want := runWindow(m, 20_000)
	got := runWindow(r, 20_000)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("snapshot round trip diverged\noriginal: %+v\nrestored: %+v", want, got)
	}
}

// TestRestoreMachineRejectsBadClocks: checkpoints come from disk, so
// RestoreMachine refuses clock scalars that the machine's cycle
// conversions cannot represent or that put the window start in the future.
func TestRestoreMachineRejectsBadClocks(t *testing.T) {
	m, err := NewMachine(mustSpec(t, "leslie3d"), config.StaticBaseline(), quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	runWindow(m, 10_000)
	for _, tc := range []struct {
		name   string
		tamper func(st *MachineState)
	}{
		{"NaN cycles", func(st *MachineState) { st.CPUCycles = math.NaN() }},
		{"infinite cycles", func(st *MachineState) { st.CPUCycles = math.Inf(1) }},
		{"negative cycles", func(st *MachineState) { st.CPUCycles, st.WinStartCycles = -1, -2 }},
		{"NaN window start", func(st *MachineState) { st.WinStartCycles = math.NaN() }},
		{"negative window start", func(st *MachineState) { st.WinStartCycles = -1 }},
		{"window cycles after clock", func(st *MachineState) { st.WinStartCycles = st.CPUCycles + 1 }},
		{"window insts after clock", func(st *MachineState) { st.WinStartInsts = st.Insts + 1 }},
	} {
		st := m.Snapshot()
		tc.tamper(&st)
		if _, err := RestoreMachine(st); err == nil {
			t.Errorf("%s: RestoreMachine accepted the checkpoint", tc.name)
		}
	}
	if _, err := RestoreMachine(m.Snapshot()); err != nil {
		t.Fatalf("untampered checkpoint rejected: %v", err)
	}
}

// TestCorruptGeneratorCheckpointFailsToLoad: a gob checkpoint whose
// generator state is out of range — a phase index past the spec, a
// non-positive MPKI — fails LoadCheckpoint with an error. Accepting it
// would defer a panic to the first step, inside a Prepared's one-time
// window materialization on a worker.
func TestCorruptGeneratorCheckpointFailsToLoad(t *testing.T) {
	p, err := Prepare("lbm", 2000, 1000, quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		tamper func(st *MachineState)
	}{
		{"phase index 99", func(st *MachineState) { st.Gen.PhaseIdx = 99 }},
		{"zero MPKI", func(st *MachineState) {
			st.Gen.Spec.Phases = append([]trace.Phase(nil), st.Gen.Spec.Phases...)
			st.Gen.Spec.Phases[0].MPKI = 0
		}},
	} {
		env := checkpointEnvelope{Magic: checkpointMagic, Version: checkpointVersion, State: p.warm.Snapshot()}
		tc.tamper(&env.State)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(env); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "corrupt.ckpt")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); err == nil {
			t.Errorf("%s: LoadCheckpoint accepted the checkpoint", tc.name)
		}
	}
}

// TestCheckpointSaveLoad: the on-disk gob round trip preserves the exact
// simulation, and the loader rejects garbage and wrong versions.
func TestCheckpointSaveLoad(t *testing.T) {
	m, err := NewMachine(mustSpec(t, "ocean"), config.StaticBaseline(), quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	runWindow(m, 30_000)

	dir := t.TempDir()
	path := filepath.Join(dir, "nested", "ckpt.gob")
	if err := SaveCheckpoint(path, m); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions() != m.Instructions() || r.Config() != m.Config() {
		t.Fatalf("loaded machine out of sync: %d insts vs %d", r.Instructions(), m.Instructions())
	}
	want := runWindow(m, 20_000)
	got := runWindow(r, 20_000)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("checkpoint round trip diverged\noriginal: %+v\nloaded:   %+v", want, got)
	}

	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.gob")); err == nil {
		t.Error("missing checkpoint loaded")
	}
	garbage := filepath.Join(dir, "garbage.gob")
	if err := os.WriteFile(garbage, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(garbage); err == nil {
		t.Error("garbage checkpoint loaded")
	}
}

// TestPreparedWarmColdEquivalence: the warm-clone fast path and the
// cold-rebuild reference path agree exactly for a spread of configurations
// — the acceptance criterion of the warm-start sweep refactor.
func TestPreparedWarmColdEquivalence(t *testing.T) {
	p, err := Prepare("lbm", 20_000, 6_000, quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	space := config.NewSpace(config.SpaceOptions{IncludeWearQuota: true, WearQuotaTarget: 8})
	cfgs := []config.Config{config.Default(), config.StaticBaseline()}
	for i := 0; i < space.Len(); i += space.Len() / 8 {
		cfgs = append(cfgs, space.At(i))
	}
	for _, cfg := range cfgs {
		warm, err := p.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := p.EvaluateCold(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("config %+v: warm-clone and cold-rebuild metrics differ\nwarm: %+v\ncold: %+v", cfg, warm, cold)
		}
	}
}

func mustSpec(t *testing.T, name string) trace.Spec {
	t.Helper()
	spec, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}
