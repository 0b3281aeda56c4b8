// Tiered-machine satellites of the snapshot/determinism contracts: the
// hybrid DRAM–NVM pipeline must honour every guarantee the stock two-tier
// pipeline does — clone isolation, snapshot/checkpoint round trips at
// arbitrary (mid-burst) cut points, warm-vs-cold sweep equivalence — plus
// the DRAM-specific window accounting.
package sim

import (
	"reflect"
	"testing"

	"mct/internal/config"
	"mct/internal/hierarchy"
	"mct/internal/trace"
)

// tieredOptions enables the DRAM cache tier at an aggressive promotion
// threshold, so short test runs still exercise fills, absorptions and
// evictions.
func tieredOptions() Options {
	o := DefaultOptions()
	o.Tiers = config.TierConfig{DRAMCache: true, DRAMPromoteThreshold: 1}
	return o
}

func mustTiered(t *testing.T, bench string, cfg config.Config) *Machine {
	t.Helper()
	m, err := NewMachine(mustSpec(t, bench), cfg, tieredOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTieredPipelineWiring: the tier pipeline of a hybrid machine is
// llc→dram→nvm and the memory seam points at the DRAM tier; the stock
// machine stays llc→nvm with the seam on the controller.
func TestTieredPipelineWiring(t *testing.T) {
	m := mustTiered(t, "lbm", config.Default())
	names := []string{}
	for _, tier := range m.Tiers() {
		names = append(names, tier.Name())
	}
	if want := []string{"llc", "dram", "nvm"}; !reflect.DeepEqual(names, want) {
		t.Errorf("hybrid tier pipeline = %v, want %v", names, want)
	}
	if m.mem != hierarchy.Mem(m.dram) {
		t.Error("hybrid memory seam does not point at the DRAM tier")
	}

	plain := mustMachine(t, "lbm", config.Default())
	names = names[:0]
	for _, tier := range plain.Tiers() {
		names = append(names, tier.Name())
	}
	if want := []string{"llc", "nvm"}; !reflect.DeepEqual(names, want) {
		t.Errorf("stock tier pipeline = %v, want %v", names, want)
	}
	if plain.mem != hierarchy.Mem(plain.ctrl) {
		t.Error("stock memory seam does not point at the NVM controller")
	}
}

// TestTieredCloneNilsScratchBuffer: Clone on a tiered machine drops the
// scratch batch buffer (per-machine, lazily rebuilt) and deep-copies the
// DRAM tier wired onto the clone's own controller.
func TestTieredCloneNilsScratchBuffer(t *testing.T) {
	m := mustTiered(t, "ocean", config.StaticBaseline())
	m.RunAccesses(10_000) // allocates the parent's batch buffer
	if m.batch == nil {
		t.Fatal("setup: parent machine has no batch buffer")
	}

	cl := m.Clone()
	if cl.batch != nil {
		t.Error("clone shares or carries a scratch batch buffer")
	}
	if cl.dram == nil || cl.dram == m.dram {
		t.Error("clone does not deep-copy the DRAM tier")
	}
	if cl.mem != hierarchy.Mem(cl.dram) {
		t.Error("clone's memory seam not rewired to its own DRAM tier")
	}
	parent, own := m.ctrl.Stats(), cl.ctrl.Stats()
	cl.RunAccesses(10_000)
	if !reflect.DeepEqual(m.ctrl.Stats(), parent) || reflect.DeepEqual(cl.ctrl.Stats(), own) {
		t.Error("clone's DRAM tier not rewired onto the clone's controller")
	}
}

// TestTieredCloneEquivalence: parent, mid-run clone, and fresh replay all
// produce byte-identical next-window metrics on the hybrid pipeline.
func TestTieredCloneEquivalence(t *testing.T) {
	a := mustTiered(t, "ocean", config.StaticBaseline())
	a.RunAccesses(30_000)

	cl := a.Clone()
	b := mustTiered(t, "ocean", config.StaticBaseline())
	b.RunAccesses(30_000)

	want := a.RunAccesses(20_000)
	gotClone := cl.RunAccesses(20_000)
	gotFresh := b.RunAccesses(20_000)
	if !reflect.DeepEqual(want, gotClone) {
		t.Errorf("tiered clone diverged\nparent: %+v\nclone:  %+v", want, gotClone)
	}
	if !reflect.DeepEqual(want, gotFresh) {
		t.Errorf("tiered fresh replay diverged\noriginal: %+v\nreplay:   %+v", want, gotFresh)
	}
}

// TestTieredCloneIsolation: churning a tiered clone (including its DRAM
// dirty set, via drain) never perturbs the parent.
func TestTieredCloneIsolation(t *testing.T) {
	m := mustTiered(t, "lbm", config.StaticBaseline())
	m.RunAccesses(25_000)

	ref := m.Clone()
	churn := m.Clone()
	if err := churn.SetConfig(config.Default()); err != nil {
		t.Fatal(err)
	}
	churn.RunAccesses(40_000)
	churn.finishRun() // flush the clone's DRAM dirty set

	want := ref.RunAccesses(15_000)
	got := m.RunAccesses(15_000)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("tiered clone activity perturbed the parent\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestTieredSnapshotRoundTripCutPoints: RestoreMachine(m.Snapshot())
// continues the identical simulation from arbitrary cut points — including
// cuts that land mid-batch/mid-burst (not aligned to StepBatchSize or any
// window boundary), where the DRAM dirty set and page-counter epochs are
// in full flight.
func TestTieredSnapshotRoundTripCutPoints(t *testing.T) {
	for _, cut := range []int{1, 777, StepBatchSize, 3*StepBatchSize + 1234, 30_000} {
		m := mustTiered(t, "leslie3d", config.StaticBaseline())
		m.RunAccesses(cut)

		r, err := RestoreMachine(m.Snapshot())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := m.RunAccesses(20_000)
		got := r.RunAccesses(20_000)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("cut %d: tiered snapshot round trip diverged\noriginal: %+v\nrestored: %+v", cut, want, got)
		}
	}
}

// TestTieredCheckpointRoundTrip: the on-disk gob checkpoint carries the
// DRAM tier state and continues the identical simulation.
func TestTieredCheckpointRoundTrip(t *testing.T) {
	m := mustTiered(t, "ocean", config.StaticBaseline())
	m.RunAccesses(30_000)

	path := t.TempDir() + "/tiered.ckpt"
	if err := SaveCheckpoint(path, m); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.DRAM() == nil {
		t.Fatal("loaded machine lost its DRAM tier")
	}
	want := m.RunAccesses(20_000)
	got := r.RunAccesses(20_000)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("tiered checkpoint round trip diverged\noriginal: %+v\nloaded:   %+v", want, got)
	}
}

// TestRestoreRejectsTierMismatch: a snapshot whose options and tier state
// disagree (hybrid options without DRAM state, or DRAM state on NVM-only
// options) is rejected instead of silently building the wrong hierarchy.
func TestRestoreRejectsTierMismatch(t *testing.T) {
	m := mustMachine(t, "lbm", config.Default())
	m.RunAccesses(5_000)
	st := m.Snapshot()
	st.Options.Tiers = config.TierConfig{DRAMCache: true}
	if _, err := RestoreMachine(st); err == nil {
		t.Error("hybrid options with no DRAM state accepted")
	}

	tm := mustTiered(t, "lbm", config.Default())
	tm.RunAccesses(5_000)
	st = tm.Snapshot()
	st.Options.Tiers = config.TierConfig{}
	if _, err := RestoreMachine(st); err == nil {
		t.Error("DRAM state with NVM-only options accepted")
	}
}

// TestTieredWarmColdEquivalence: the warm-clone sweep fast path and the
// cold-rebuild reference agree exactly on the hybrid pipeline — including
// the warmup settle of the DRAM dirty set, which both paths must apply
// identically.
func TestTieredWarmColdEquivalence(t *testing.T) {
	p, err := Prepare("lbm", 20_000, 6_000, tieredOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []config.Config{config.Default(), config.StaticBaseline()} {
		warm, err := p.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := p.EvaluateCold(20_000, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("config %+v: tiered warm/cold metrics differ\nwarm: %+v\ncold: %+v", cfg, warm, cold)
		}
	}
}

// TestTieredHitRateAcrossWindows: per-window DRAM metrics are deltas of
// the cumulative tier stats — the second window's hit rate reflects only
// that window's traffic, not the cumulative history.
func TestTieredHitRateAcrossWindows(t *testing.T) {
	m := mustTiered(t, "leslie3d", config.StaticBaseline())
	m.Warmup(30_000)

	before := m.DRAM().Stats()
	w1 := m.RunAccesses(25_000)
	mid := m.DRAM().Stats()
	w2 := m.RunAccesses(25_000)
	after := m.DRAM().Stats()

	d1 := diffDRAM(before, mid)
	d2 := diffDRAM(mid, after)
	if w1.DRAMHits != d1.Hits || w1.DRAMMisses != d1.Misses {
		t.Errorf("window 1 DRAM counters %d/%d, want deltas %d/%d", w1.DRAMHits, w1.DRAMMisses, d1.Hits, d1.Misses)
	}
	if w2.DRAMHits != d2.Hits || w2.DRAMMisses != d2.Misses {
		t.Errorf("window 2 DRAM counters %d/%d, want deltas %d/%d", w2.DRAMHits, w2.DRAMMisses, d2.Hits, d2.Misses)
	}
	if w1.DRAMHitRate != d1.HitRate() {
		t.Errorf("window 1 hit rate %v, want windowed %v", w1.DRAMHitRate, d1.HitRate())
	}
	if w2.DRAMHitRate != d2.HitRate() {
		t.Errorf("window 2 hit rate %v, want windowed %v (cumulative would be %v)",
			w2.DRAMHitRate, d2.HitRate(), after.HitRate())
	}
	if d2.Hits+d2.Misses == 0 {
		t.Error("window 2 saw no DRAM traffic; the test exercises nothing")
	}
}

// TestTieredDeterminism: two identical tiered machines produce identical
// metrics — the hybrid pipeline stays schedule-free and reproducible.
func TestTieredDeterminism(t *testing.T) {
	a := mustTiered(t, "stream", config.Default())
	b := mustTiered(t, "stream", config.Default())
	wa := a.RunAccesses(40_000)
	wb := b.RunAccesses(40_000)
	if !reflect.DeepEqual(wa, wb) {
		t.Errorf("tiered runs diverged\na: %+v\nb: %+v", wa, wb)
	}
	if wa.DRAMHits+wa.DRAMMisses == 0 {
		t.Error("tiered run saw no DRAM traffic")
	}
}

// TestTieredMultiMachineClone: the multi-core hybrid machine honours the
// clone contract too.
func TestTieredMultiMachineClone(t *testing.T) {
	specs, err := trace.MixByName(trace.MixNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultMultiOptions()
	opt.Seed = 5
	opt.Tiers = config.TierConfig{DRAMCache: true, DRAMPromoteThreshold: 1}
	m, err := NewMultiMachine(specs, config.StaticBaseline(), opt)
	if err != nil {
		t.Fatal(err)
	}
	m.Warmup(20_000)

	cl := m.Clone()
	if cl.dram == nil || cl.dram == m.dram {
		t.Fatal("multi-machine clone does not deep-copy the DRAM tier")
	}
	want := m.RunInstructions(200_000)
	got := cl.RunInstructions(200_000)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("tiered multi-machine clone diverged\nparent: %+v\nclone:  %+v", want, got)
	}
	if want.DRAMHits+want.DRAMMisses == 0 {
		t.Error("tiered multi-machine run saw no DRAM traffic")
	}
}
