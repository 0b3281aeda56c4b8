package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mct/internal/stats"
)

// synth generates (X, y) from a target function with optional noise.
func synth(rng *rand.Rand, n, d int, f func([]float64) float64, noise float64) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.NormFloat64() * 2
		}
		X[i] = x
		y[i] = f(x) + rng.NormFloat64()*noise
	}
	return X, y
}

func testSet(rng *rand.Rand, n, d int, f func([]float64) float64) ([][]float64, []float64) {
	return synth(rng, n, d, f, 0)
}

func r2Of(p Predictor, X [][]float64, y []float64) float64 {
	pred := make([]float64, len(X))
	for i := range X {
		pred[i] = p.Predict(X[i])
	}
	return stats.R2(pred, y)
}

func TestCheckData(t *testing.T) {
	if err := checkData(nil, nil); err == nil {
		t.Fatal("empty data must fail")
	}
	if err := checkData([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if err := checkData([][]float64{{}}, []float64{1}); err == nil {
		t.Fatal("empty rows must fail")
	}
	if err := checkData([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged rows must fail")
	}
}

func TestLinearRecoversLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(x []float64) float64 { return 3*x[0] - 2*x[1] + 0.5*x[2] + 7 }
	X, y := synth(rng, 60, 3, f, 0)
	lin := NewLinear(0)
	if err := lin.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	tx, ty := testSet(rng, 40, 3, f)
	if acc := r2Of(lin, tx, ty); acc < 0.999 {
		t.Fatalf("linear R² = %v on a linear function", acc)
	}
}

func TestQuadraticRecoversQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(x []float64) float64 { return x[0]*x[0] - 2*x[0]*x[1] + x[1] + 1 }
	X, y := synth(rng, 80, 3, f, 0)

	lin := NewLinear(0)
	quad := NewQuadratic(0)
	if err := lin.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := quad.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	tx, ty := testSet(rng, 60, 3, f)
	la, qa := r2Of(lin, tx, ty), r2Of(quad, tx, ty)
	if qa < 0.999 {
		t.Fatalf("quadratic R² = %v on a quadratic function", qa)
	}
	if qa <= la {
		t.Fatalf("quadratic (%v) must beat linear (%v) on a quadratic function", qa, la)
	}
}

func TestLassoSelectsSparseFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Only features 0 and 3 matter out of 8.
	f := func(x []float64) float64 { return 5*x[0] - 4*x[3] }
	X, y := synth(rng, 100, 8, f, 0.01)
	lasso := NewLinearLasso(0.05)
	if err := lasso.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	w, _ := lasso.Coefficients()
	for j, v := range w {
		if j == 0 || j == 3 {
			if v == 0 {
				t.Fatalf("important feature %d zeroed", j)
			}
			continue
		}
		if math.Abs(v) > 0.1 {
			t.Fatalf("irrelevant feature %d has weight %v", j, v)
		}
	}
	selected := 0
	for _, v := range w {
		if v != 0 {
			selected++
		}
	}
	if selected > 4 {
		t.Fatalf("lasso kept too many features: %v", w)
	}
}

func TestLassoShrinksWithLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(x []float64) float64 { return 2 * x[0] }
	X, y := synth(rng, 50, 4, f, 0.1)
	small := NewLinearLasso(0.001)
	big := NewLinearLasso(1.0)
	if err := small.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := big.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	ws, _ := small.Coefficients()
	wb, _ := big.Coefficients()
	var ns, nb float64
	for j := range ws {
		ns += math.Abs(ws[j])
		nb += math.Abs(wb[j])
	}
	if nb >= ns {
		t.Fatalf("larger lambda must shrink weights: %v vs %v", nb, ns)
	}
}

func TestQuadraticLassoConvergesFasterThanPlainQuadratic(t *testing.T) {
	// With few samples relative to the 65-dim expansion, regularization
	// must help — the paper's Figure 2 observation.
	rng := rand.New(rand.NewSource(5))
	f := func(x []float64) float64 {
		return x[0]*x[0] - x[1]*x[2] + 2*x[3] - x[4]
	}
	X, y := synth(rng, 30, 10, f, 0.05) // 30 samples, 65 expanded features
	tx, ty := testSet(rng, 200, 10, f)

	plain := NewQuadratic(0)
	lasso := NewQuadraticLasso(0.01)
	if err := plain.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := lasso.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pa, la := r2Of(plain, tx, ty), r2Of(lasso, tx, ty)
	if la <= pa {
		t.Fatalf("under-determined quadratic: lasso (%v) must beat plain (%v)", la, pa)
	}
}

func TestGBoostFitsNonlinear(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// A step function linear models cannot express.
	f := func(x []float64) float64 {
		if x[0] > 0 && x[1] > 0 {
			return 5
		}
		if x[0] > 0 {
			return 2
		}
		return -3
	}
	X, y := synth(rng, 200, 4, f, 0)
	tx, ty := testSet(rng, 100, 4, f)
	gb := NewGBoost()
	lin := NewLinear(0)
	if err := gb.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := lin.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	ga, la := r2Of(gb, tx, ty), r2Of(lin, tx, ty)
	if ga < 0.95 {
		t.Fatalf("gboost R² = %v on a step function", ga)
	}
	if ga <= la {
		t.Fatalf("gboost (%v) must beat linear (%v) on a step function", ga, la)
	}
}

func TestGBoostDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(x []float64) float64 { return x[0] * x[1] }
	X, y := synth(rng, 80, 3, f, 0.1)
	a := NewGBoost()
	b := NewGBoost()
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, -0.7, 1.1}
	if a.Predict(probe) != b.Predict(probe) {
		t.Fatal("same seed must give identical ensembles")
	}
}

func TestPredictBeforeFit(t *testing.T) {
	for _, p := range []Predictor{NewLinear(0), NewLinearLasso(0.1), NewQuadratic(0), NewQuadraticLasso(0.1), NewGBoost()} {
		if got := p.Predict([]float64{1, 2, 3}); got != 0 {
			t.Errorf("%s unfitted Predict = %v, want 0", p.Name(), got)
		}
	}
}

func TestOfflinePredictor(t *testing.T) {
	// Two "applications" with known per-config values.
	x1 := [][]float64{{1, 0}, {0, 1}}
	x2 := [][]float64{{1, 0}, {0, 1}}
	off := NewOffline([]Dataset{
		{X: x1, Y: []float64{2, 4}},
		{X: x2, Y: []float64{4, 8}},
	})
	if got := off.Predict([]float64{1, 0}); got != 3 {
		t.Fatalf("offline mean = %v, want 3", got)
	}
	if got := off.Predict([]float64{0, 1}); got != 6 {
		t.Fatalf("offline mean = %v, want 6", got)
	}
	// Unknown config: global mean.
	if got := off.Predict([]float64{9, 9}); got != 4.5 {
		t.Fatalf("offline fallback = %v, want 4.5", got)
	}
	if err := off.Fit(nil, nil); err != nil {
		t.Fatal("offline Fit must be a no-op")
	}
}

// TestOfflineFallbackDeterministic is the regression test for the
// map-iteration bug mctlint's maprange rule caught: the unknown-config
// fallback used to sum the mean table by ranging the map, so the global mean
// could differ bit-for-bit between runs (and between rebuilt predictors).
// With many configurations of mixed magnitudes, rebuilding the predictor
// from the same data must keep the fallback bit-identical.
func TestOfflineFallbackDeterministic(t *testing.T) {
	build := func() *Offline {
		var ds Dataset
		for i := 0; i < 64; i++ {
			ds.X = append(ds.X, []float64{float64(i), float64(i % 7)})
			ds.Y = append(ds.Y, math.Pow(10, float64(i%18)-9)) // 10⁻⁹ … 10⁸
		}
		return NewOffline([]Dataset{ds})
	}
	unknown := []float64{-1, -1}
	want := build().Predict(unknown)
	for i := 0; i < 50; i++ {
		if got := build().Predict(unknown); got != want {
			t.Fatalf("rebuild %d: fallback mean drifted: %v != %v", i, got, want)
		}
	}
}

func TestHBayesTransfersAcrossTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Tasks share weights w ~ N([3,-2], small); a new task with very few
	// samples must beat cold OLS.
	makeTask := func() Dataset {
		w0 := 3 + rng.NormFloat64()*0.2
		w1 := -2 + rng.NormFloat64()*0.2
		X, y := synth(rng, 40, 2, func(x []float64) float64 { return w0*x[0] + w1*x[1] }, 0.05)
		return Dataset{X: X, Y: y}
	}
	var offline []Dataset
	for i := 0; i < 6; i++ {
		offline = append(offline, makeTask())
	}
	hb, err := NewHierarchicalBayes(offline, 15)
	if err != nil {
		t.Fatal(err)
	}
	// New task: only 3 samples.
	f := func(x []float64) float64 { return 3.1*x[0] - 1.9*x[1] }
	X, y := synth(rng, 3, 2, f, 0.05)
	if err := hb.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	tx, ty := testSet(rng, 100, 2, f)
	if acc := r2Of(hb, tx, ty); acc < 0.9 {
		t.Fatalf("hbayes R² with 3 samples = %v, want ≥0.9 via prior transfer", acc)
	}
}

func TestHBayesErrors(t *testing.T) {
	if _, err := NewHierarchicalBayes(nil, 5); err == nil {
		t.Fatal("empty offline data must fail")
	}
	hb, err := NewHierarchicalBayes([]Dataset{{X: [][]float64{{1, 2}}, Y: []float64{1}}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := hb.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("width mismatch must fail")
	}
	if hb.Predict([]float64{1, 2}) != 0 {
		t.Fatal("unfitted hbayes must predict 0")
	}
}

func TestQuadraticExpansion(t *testing.T) {
	x := []float64{2, 3}
	got := ExpandQuadratic(x)
	want := []float64{2, 3, 4, 9, 6}
	if len(got) != QuadraticLen(2) {
		t.Fatalf("expansion length %d, want %d", len(got), QuadraticLen(2))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("expansion[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// The paper's dimensionality: 10 → 65.
	if QuadraticLen(10) != 65 {
		t.Fatalf("QuadraticLen(10) = %d, want 65", QuadraticLen(10))
	}
	names := QuadraticNames([]string{"a", "b"})
	if names[2] != "a^2" || names[4] != "a*b" {
		t.Fatalf("names wrong: %v", names)
	}
	if len(QuadraticNames(make([]string, 10))) != 65 {
		t.Fatal("names length mismatch")
	}
}

func TestStandardizer(t *testing.T) {
	X := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s := FitStandardizer(X)
	Z := s.ApplyAll(X)
	// Column 0: mean 3, sd sqrt(8/3).
	var m0 float64
	for _, z := range Z {
		m0 += z[0]
	}
	if math.Abs(m0) > 1e-12 {
		t.Fatalf("standardized mean = %v, want 0", m0)
	}
	// Constant column: all zeros, no NaN.
	for _, z := range Z {
		if z[1] != 0 || math.IsNaN(z[0]) {
			t.Fatalf("constant column mishandled: %v", z)
		}
	}
}

// onlineModels are the predictors New constructs without offline data:
// the ones Table 7/Figure 2 compare.
var onlineModels = []string{NameLinear, NameLinearLasso, NameQuadratic, NameQuadraticLasso, NameGBoost}

func TestNewFactory(t *testing.T) {
	for _, name := range onlineModels {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("Name() = %s, want %s", p.Name(), name)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown model must error")
	}
}

// Property: every online model's prediction is finite after fitting random
// data.
func TestPredictionsFinite(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		X, y := synth(rng, 20+rng.Intn(50), 4, func(x []float64) float64 {
			return x[0] + x[1]*x[2]
		}, 0.5)
		for _, name := range onlineModels {
			p, err := New(name)
			if err != nil {
				return false
			}
			if err := p.Fit(X, y); err != nil {
				return false
			}
			probe := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			v := p.Predict(probe)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
