// Package mat provides the small dense linear-algebra kernels used by the
// learning stack: row-major matrices, matrix products, Cholesky
// factorization, and triangular / symmetric positive-definite solves.
//
// The package is deliberately minimal — MCT's models never exceed a few
// hundred rows and ~65 columns, so simple O(n³) dense algorithms are both
// adequate and dependency-free.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when a Cholesky factorization is attempted on a
// matrix that is not symmetric positive definite.
var ErrNotSPD = errors.New("mat: matrix is not symmetric positive definite")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: dimension mismatch")

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a rows×cols zero matrix.
// It panics if rows or cols is not positive.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (row-major, length rows*cols) in a Dense without
// copying. It panics on a length mismatch.
func NewDenseData(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// Dims returns the matrix dimensions.
func (m *Dense) Dims() (rows, cols int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

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

// MulVec returns the matrix-vector product a*x.
func MulVec(a *Dense, x []float64) ([]float64, error) {
	if a.cols != len(x) {
		return nil, fmt.Errorf("%w: (%dx%d)*vec(%d)", ErrShape, a.rows, a.cols, len(x))
	}
	y := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// AtA returns the Gram matrix aᵀa (symmetric, cols×cols).
func AtA(a *Dense) *Dense {
	g := NewDense(a.cols, a.cols)
	for r := 0; r < a.rows; r++ {
		row := a.Row(r)
		for i, vi := range row {
			if vi == 0 {
				continue
			}
			grow := g.Row(i)
			for j := i; j < len(row); j++ {
				grow[j] += vi * row[j]
			}
		}
	}
	// Mirror the upper triangle into the lower triangle.
	for i := 0; i < g.rows; i++ {
		for j := i + 1; j < g.cols; j++ {
			g.data[j*g.cols+i] = g.data[i*g.cols+j]
		}
	}
	return g
}

// AtVec returns aᵀy.
func AtVec(a *Dense, y []float64) ([]float64, error) {
	if a.rows != len(y) {
		return nil, fmt.Errorf("%w: (%dx%d)ᵀ*vec(%d)", ErrShape, a.rows, a.cols, len(y))
	}
	out := make([]float64, a.cols)
	for r := 0; r < a.rows; r++ {
		row := a.Row(r)
		yv := y[r]
		if yv == 0 {
			continue
		}
		for j, v := range row {
			out[j] += v * yv
		}
	}
	return out, nil
}

// Cholesky computes the lower-triangular factor L with m = L·Lᵀ.
// m must be symmetric positive definite.
func Cholesky(m *Dense) (*Dense, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("%w: cholesky of %dx%d", ErrShape, m.rows, m.cols)
	}
	n := m.rows
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotSPD
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveCholesky solves m·x = b given the lower Cholesky factor l of m.
func SolveCholesky(l *Dense, b []float64) ([]float64, error) {
	n := l.rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: solve %dx%d with rhs %d", ErrShape, n, n, len(b))
	}
	// Forward substitution: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	// Back substitution: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// SolveSPD solves m·x = b for symmetric positive-definite m.
func SolveSPD(m *Dense, b []float64) ([]float64, error) {
	l, err := Cholesky(m)
	if err != nil {
		return nil, err
	}
	return SolveCholesky(l, b)
}

// SolveRidge solves the regularized least-squares problem
// (XᵀX + λI)·w = Xᵀy, the workhorse of the regression predictors.
// λ must be non-negative; a strictly positive λ guarantees solvability.
func SolveRidge(x *Dense, y []float64, lambda float64) ([]float64, error) {
	if x.rows != len(y) {
		return nil, fmt.Errorf("%w: %d rows vs %d targets", ErrShape, x.rows, len(y))
	}
	if lambda < 0 {
		return nil, fmt.Errorf("mat: negative ridge penalty %g", lambda)
	}
	g := AtA(x)
	for i := 0; i < g.rows; i++ {
		g.data[i*g.cols+i] += lambda
	}
	rhs, err := AtVec(x, y)
	if err != nil {
		return nil, err
	}
	w, err := SolveSPD(g, rhs)
	if err != nil {
		// The Gram matrix can be singular when columns are collinear and
		// lambda is zero; retry with a tiny jitter to stay useful.
		for i := 0; i < g.rows; i++ {
			g.data[i*g.cols+i] += 1e-8
		}
		return SolveSPD(g, rhs)
	}
	return w, nil
}

// Inverse returns the inverse of a symmetric positive-definite matrix.
func Inverse(m *Dense) (*Dense, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("%w: inverse of %dx%d", ErrShape, m.rows, m.cols)
	}
	l, err := Cholesky(m)
	if err != nil {
		return nil, err
	}
	n := m.rows
	inv := NewDense(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := SolveCholesky(l, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// Dot returns the inner product of two equal-length vectors.
// It panics on length mismatch, mirroring the behaviour of copy-style
// builtins for programmer errors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: dot of lengths %d and %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AddScaled computes dst += alpha*src in place.
// It panics on length mismatch.
func AddScaled(dst []float64, alpha float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mat: addscaled of lengths %d and %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += alpha * v
	}
}
