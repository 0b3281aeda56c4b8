package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the product a*b.
func Mul(a, b *Dense) (*Dense, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: (%dx%d)*(%dx%d)", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	c := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c, nil
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewDensePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0x3 matrix")
		}
	}()
	NewDense(0, 3)
}

func TestNewDenseDataPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short data")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestAtSetRow(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 5)
	if got := m.At(1, 2); got != 5 {
		t.Fatalf("At(1,2) = %v, want 5", got)
	}
	row := m.Row(1)
	if row[2] != 5 {
		t.Fatalf("Row(1)[2] = %v, want 5", row[2])
	}
	row[0] = 7 // views alias
	if m.At(1, 0) != 7 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestTranspose(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	r, c := tr.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("T dims = %dx%d, want 3x2", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{5, 6, 7, 8})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if c.data[i] != w {
			t.Fatalf("Mul[%d] = %v, want %v", i, c.data[i], w)
		}
	}
}

func TestMulShapeError(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(2, 3)
	if _, err := Mul(a, b); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMulVecKnown(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 0, 2, 0, 1, -1})
	y, err := MulVec(a, []float64{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 13 || y[1] != -1 {
		t.Fatalf("MulVec = %v, want [13 -1]", y)
	}
	if _, err := MulVec(a, []float64{1, 2}); err == nil {
		t.Fatal("expected shape error")
	}
}

func randomSPD(rng *rand.Rand, n int) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	spd := AtA(a)
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n)) // well-conditioned
	}
	return spd
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(8)
		m := randomSPD(rng, n)
		l, err := Cholesky(m)
		if err != nil {
			t.Fatal(err)
		}
		// L Lᵀ == m
		llt, err := Mul(l, l.T())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(llt.At(i, j), m.At(i, j), 1e-8*(1+math.Abs(m.At(i, j)))) {
					t.Fatalf("LLᵀ(%d,%d) = %v, want %v", i, j, llt.At(i, j), m.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	m := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // indefinite
	if _, err := Cholesky(m); err == nil {
		t.Fatal("expected ErrNotSPD")
	}
	if _, err := Cholesky(NewDense(2, 3)); err == nil {
		t.Fatal("expected shape error")
	}
}

// Property: solving A·x = b recovers x for random SPD systems.
func TestSolveSPDRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := randomSPD(r, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b, err := MulVec(a, x)
		if err != nil {
			return false
		}
		got, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEq(got[i], x[i], 1e-6*(1+math.Abs(x[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInverseIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomSPD(rng, 5)
	inv, err := Inverse(m)
	if err != nil {
		t.Fatal(err)
	}
	id, err := Mul(m, inv)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(id.At(i, j), want, 1e-8) {
				t.Fatalf("M·M⁻¹(%d,%d) = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestSolveRidgeRecoversWeights(t *testing.T) {
	// y = 2x₀ - 3x₁ exactly; ridge with tiny lambda must recover it.
	rng := rand.New(rand.NewSource(4))
	n, d := 50, 2
	x := NewDense(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y[i] = 2*a - 3*b
	}
	w, err := SolveRidge(x, y, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(w[0], 2, 1e-4) || !almostEq(w[1], -3, 1e-4) {
		t.Fatalf("ridge weights = %v, want [2 -3]", w)
	}
}

func TestSolveRidgeErrors(t *testing.T) {
	x := NewDense(3, 2)
	if _, err := SolveRidge(x, []float64{1, 2}, 0.1); err == nil {
		t.Fatal("expected shape error for mismatched targets")
	}
	if _, err := SolveRidge(x, []float64{1, 2, 3}, -1); err == nil {
		t.Fatal("expected error for negative lambda")
	}
}

func TestSolveRidgeHandlesCollinear(t *testing.T) {
	// Duplicate columns: plain normal equations are singular; the ridge
	// fallback must still produce a finite solution.
	n := 20
	x := NewDense(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := float64(i)
		x.Set(i, 0, v)
		x.Set(i, 1, v)
		y[i] = 4 * v
	}
	w, err := SolveRidge(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, wi := range w {
		if math.IsNaN(wi) || math.IsInf(wi, 0) {
			t.Fatalf("non-finite weight %v", w)
		}
	}
	// Combined effect must reproduce the function.
	if !almostEq(w[0]+w[1], 4, 1e-2) {
		t.Fatalf("w0+w1 = %v, want 4", w[0]+w[1])
	}
}

func TestDotNormAddScaled(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	dst := []float64{1, 1}
	AddScaled(dst, 2, []float64{3, 4})
	if dst[0] != 7 || dst[1] != 9 {
		t.Fatalf("AddScaled = %v, want [7 9]", dst)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched Dot")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAtAMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewDense(7, 4)
	for i := 0; i < 7; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	g := AtA(a)
	explicit, err := Mul(a.T(), a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !almostEq(g.At(i, j), explicit.At(i, j), 1e-10) {
				t.Fatalf("AtA(%d,%d) = %v, want %v", i, j, g.At(i, j), explicit.At(i, j))
			}
		}
	}
}

func TestAtVecMatchesExplicit(t *testing.T) {
	a := NewDenseData(3, 2, []float64{1, 2, 3, 4, 5, 6})
	y := []float64{1, -1, 2}
	got, err := AtVec(a, y)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1-3+10 || got[1] != 2-4+12 {
		t.Fatalf("AtVec = %v", got)
	}
	if _, err := AtVec(a, []float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
}
