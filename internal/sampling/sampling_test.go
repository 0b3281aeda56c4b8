package sampling

import (
	"testing"

	"mct/internal/config"
	"mct/internal/rng"
)

func space() *config.Space { return config.NewSpace(config.SpaceOptions{}) }

func TestRandomPlan(t *testing.T) {
	s := space()
	p := Random(s, 50, rng.New(7))
	if p.Len() != 50 {
		t.Fatalf("plan size %d, want 50", p.Len())
	}
	seen := map[int]bool{}
	for i, idx := range p.Indices {
		if idx < 0 || idx >= s.Len() {
			t.Fatalf("index %d out of range", idx)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
		if i > 0 && p.Indices[i] <= p.Indices[i-1] {
			t.Fatal("indices not sorted")
		}
	}
	// Deterministic by seed; different seeds differ.
	q := Random(s, 50, rng.New(7))
	for i := range p.Indices {
		if p.Indices[i] != q.Indices[i] {
			t.Fatal("same seed must give the same plan")
		}
	}
	r := Random(s, 50, rng.New(8))
	same := 0
	for i := range p.Indices {
		if p.Indices[i] == r.Indices[i] {
			same++
		}
	}
	if same == len(p.Indices) {
		t.Fatal("different seeds should differ")
	}
	// Oversized request clamps to the space.
	if Random(s, s.Len()+100, rng.New(1)).Len() != s.Len() {
		t.Fatal("oversized plan must clamp")
	}
}

func TestFeatureBasedPlanCoversPrimaryGrid(t *testing.T) {
	s := space()
	p := FeatureBased(s, rng.New(42))
	// One sample per (fast, slow, cancellation) combination present in
	// the space — the paper gets 77; our grids yield a similar count.
	if p.Len() < 60 || p.Len() > 100 {
		t.Fatalf("feature-based plan size %d outside expected band", p.Len())
	}
	type key struct{ fast, slow, canc float64 }
	want := map[key]bool{}
	for i := 0; i < s.Len(); i++ {
		c := s.At(i).Compressed()
		want[key{c[2], c[3], c[4]}] = true
	}
	got := map[key]bool{}
	for _, idx := range p.Indices {
		c := s.At(idx).Compressed()
		got[key{c[2], c[3], c[4]}] = true
	}
	if len(got) != len(want) {
		t.Fatalf("plan covers %d/%d primary-feature combinations", len(got), len(want))
	}
	// Deterministic.
	q := FeatureBased(s, rng.New(42))
	for i := range p.Indices {
		if p.Indices[i] != q.Indices[i] {
			t.Fatal("feature-based plan must be deterministic per seed")
		}
	}
}

func TestBuildSchedule(t *testing.T) {
	sched, err := BuildSchedule(1_000_000, 10_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Rounds != 10 || sched.UnitInsts != 10_000 {
		t.Fatalf("schedule = %+v", sched)
	}
	if total := sched.UnitInsts * uint64(sched.Rounds) * 10; total != 1_000_000 {
		t.Fatalf("schedule over 10 samples costs %d insts, want the whole budget", total)
	}
	// Budget smaller than one round still yields one round.
	sched, err = BuildSchedule(1000, 10_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Rounds != 1 {
		t.Fatalf("minimum rounds = %d, want 1", sched.Rounds)
	}
	if _, err := BuildSchedule(0, 10, 5); err == nil {
		t.Fatal("zero budget must fail")
	}
	if _, err := BuildSchedule(10, 0, 5); err == nil {
		t.Fatal("zero unit must fail")
	}
	if _, err := BuildSchedule(10, 10, 0); err == nil {
		t.Fatal("zero samples must fail")
	}
}
