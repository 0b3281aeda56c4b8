package wearlevel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 10)
}

func TestMapBijective(t *testing.T) {
	s := New(16, 4)
	for step := 0; step < 200; step++ {
		seen := map[int]bool{}
		for la := 0; la < s.n; la++ {
			pa := s.Map(la)
			if pa < 0 || pa > s.n {
				t.Fatalf("PA %d out of range", pa)
			}
			if pa == s.gap {
				t.Fatalf("PA %d collides with gap %d", pa, s.gap)
			}
			if seen[pa] {
				t.Fatalf("mapping not injective at step %d", step)
			}
			seen[pa] = true
		}
		s.OnWrite(step % s.n)
	}
}

func TestMapPanicsOutOfRange(t *testing.T) {
	s := New(8, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Map(8)
}

func TestGapMovesEveryPsi(t *testing.T) {
	s := New(32, 5)
	moves := 0
	for i := 0; i < 50; i++ {
		if _, moved := s.OnWrite(0); moved {
			moves++
		}
	}
	if moves != 10 {
		t.Fatalf("gap moved %d times over 50 writes with ψ=5, want 10", moves)
	}
	if s.GapMoves() != 10 {
		t.Fatalf("GapMoves = %d", s.GapMoves())
	}
}

func TestHotLineGetsLeveled(t *testing.T) {
	// Worst case for an unleveled memory: every write hits one line.
	// Start-Gap must spread that wear across physical slots over full
	// rotations.
	n := 64
	s := New(n, 1) // most aggressive leveling
	writes := n * (n + 1) * 4
	for i := 0; i < writes; i++ {
		s.OnWrite(7)
	}
	eff := s.Efficiency()
	if eff < 0.4 {
		t.Fatalf("hot-line efficiency %v too low — leveling not working", eff)
	}
	// Without leveling the efficiency would be ~1/(n+1).
	raw := make([]uint64, n+1)
	raw[7] = uint64(writes)
	if un := UnleveledEfficiency(raw); eff < 10*un {
		t.Fatalf("leveling gain too small: %v vs unleveled %v", eff, un)
	}
}

func TestUniformStreamNearPerfect(t *testing.T) {
	n := 128
	s := New(n, 100)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		s.OnWrite(rng.Intn(n))
	}
	if eff := s.Efficiency(); eff < 0.85 {
		t.Fatalf("uniform-stream efficiency %v, want ≥0.85", eff)
	}
}

func TestUnleveledEfficiency(t *testing.T) {
	if UnleveledEfficiency([]uint64{4, 4, 4, 4}) != 1 {
		t.Fatal("even wear must be 1")
	}
	if got := UnleveledEfficiency([]uint64{8, 0, 0, 0}); got != 0.25 {
		t.Fatalf("single hot line = %v, want 0.25", got)
	}
	if UnleveledEfficiency([]uint64{0, 0}) != 1 {
		t.Fatal("no wear must be 1")
	}
}

// Property: wear accounting is conserved — total recorded wear equals
// demand writes plus gap-copy writes.
func TestWearConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(64)
		psi := 1 + rng.Intn(16)
		s := New(n, psi)
		demand := 500 + rng.Intn(2000)
		copies := uint64(0)
		for i := 0; i < demand; i++ {
			if _, moved := s.OnWrite(rng.Intn(n)); moved && s.gap != n {
				// A wrap (gap==n after move) performs no copy.
				copies++
			}
		}
		var total uint64
		for _, w := range s.wear {
			total += w
		}
		return total == uint64(demand)+copies
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
