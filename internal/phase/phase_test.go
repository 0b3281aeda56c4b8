package phase

import (
	"math/rand"
	"testing"
)

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestStationaryWorkloadNoPhase(t *testing.T) {
	d := New(1000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		// Stationary noise around 100 requests/interval.
		if _, newPhase := d.Observe(100 + rng.NormFloat64()*5); newPhase {
			t.Fatalf("false phase detection at interval %d", i)
		}
	}
}

func TestStepChangeDetected(t *testing.T) {
	d := New(1000)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		d.Observe(100 + rng.NormFloat64()*5)
	}
	detected := false
	for i := 0; i < 50; i++ {
		// Dramatic shift: 10x the traffic.
		if _, newPhase := d.Observe(1000 + rng.NormFloat64()*5); newPhase {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatal("10x workload shift not detected")
	}
	// After detection the history is cleared.
	if len(d.hist) != 0 {
		t.Fatalf("history not cleared: %d", len(d.hist))
	}
}

func TestNoScoreBeforeWarm(t *testing.T) {
	d := New(1000)
	for i := 0; i < 2*shortWindows-1; i++ {
		if s, _ := d.Observe(float64(i * 100)); s != 0 {
			t.Fatalf("score before warm history = %v, want 0", s)
		}
	}
}

func TestGradualDriftTolerated(t *testing.T) {
	// Slow drift should not look like a dramatic phase: the long window
	// tracks it.
	d := New(1000)
	rng := rand.New(rand.NewSource(3))
	level := 100.0
	phases := 0
	for i := 0; i < 400; i++ {
		level += 0.2 // +0.2 per interval: 80 total over the run
		if _, np := d.Observe(level + rng.NormFloat64()*8); np {
			phases++
		}
	}
	if phases > 2 {
		t.Fatalf("gradual drift triggered %d phases", phases)
	}
}

func TestHistoryBounded(t *testing.T) {
	d := New(1000)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3*longWindows; i++ {
		d.Observe(50 + rng.NormFloat64())
	}
	if len(d.hist) > longWindows {
		t.Fatalf("history %d exceeds cap %d", len(d.hist), longWindows)
	}
}

func TestReset(t *testing.T) {
	d := New(1000)
	for i := 0; i < 50; i++ {
		d.Observe(10)
	}
	d.Reset()
	if len(d.hist) != 0 {
		t.Fatal("Reset must clear history")
	}
	if d.Interval() != 1000 {
		t.Fatal("Reset must keep the interval")
	}
}
