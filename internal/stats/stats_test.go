package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); math.Abs(got-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate inputs must return 0")
	}
}

func TestTScore(t *testing.T) {
	// Identical samples: score 0.
	if got := TScore(5, 1, 10, 5, 1, 10); got != 0 {
		t.Fatalf("identical means score = %v, want 0", got)
	}
	// Separated means with small variance: large score.
	if got := TScore(100, 1, 50, 5, 1, 50); got < 50 {
		t.Fatalf("separated means score = %v, want large", got)
	}
	// Symmetry (absolute value).
	a := TScore(1, 2, 30, 4, 3, 40)
	b := TScore(4, 3, 40, 1, 2, 30)
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("t-score not symmetric: %v vs %v", a, b)
	}
	// Too-small samples: 0.
	if TScore(1, 1, 1, 2, 1, 50) != 0 {
		t.Fatal("n<2 must score 0")
	}
	// Zero variance, different means: +Inf.
	if !math.IsInf(TScore(1, 0, 10, 2, 0, 10), 1) {
		t.Fatal("zero variance different means must be +Inf")
	}
}

func TestR2(t *testing.T) {
	truth := []float64{1, 2, 3, 4, 5}
	if got := R2(truth, truth); got != 1 {
		t.Fatalf("perfect prediction R² = %v, want 1", got)
	}
	mean := []float64{3, 3, 3, 3, 3}
	if got := R2(mean, truth); got != 0 {
		t.Fatalf("mean prediction R² = %v, want 0", got)
	}
	// Worse than the mean clamps to 0 (Eq. 3 takes max with 0).
	bad := []float64{100, -50, 80, -10, 60}
	if got := R2(bad, truth); got != 0 {
		t.Fatalf("bad prediction R² = %v, want clamp to 0", got)
	}
	// Mismatched lengths or tiny inputs → 0.
	if R2([]float64{1}, []float64{1, 2}) != 0 || R2([]float64{1}, []float64{1}) != 0 {
		t.Fatal("degenerate inputs must return 0")
	}
	// Constant truth: 1 if matched, 0 otherwise.
	if R2([]float64{2, 2}, []float64{2, 2}) != 1 || R2([]float64{2, 3}, []float64{2, 2}) != 0 {
		t.Fatal("constant-truth handling wrong")
	}
}

// Property: R² is always within [0,1].
func TestR2Bounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		pred := make([]float64, n)
		truth := make([]float64, n)
		for i := range pred {
			pred[i] = rng.NormFloat64() * 10
			truth[i] = rng.NormFloat64() * 10
		}
		r := R2(pred, truth)
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("GeoMean(2,8) = %v, want 4", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean must be 0")
	}
	// Non-positive values degrade gracefully (no NaN).
	if v := GeoMean([]float64{1, 0}); math.IsNaN(v) {
		t.Fatal("geomean with zero must not be NaN")
	}
}
