package ml

import "math"

// DefaultLassoLambda is the regularization strength used by the
// experiments. Targets are normalized to the baseline configuration
// (≈ O(1) values), so a single default works across objectives.
const DefaultLassoLambda = 0.01

// Lasso is L1-regularized least squares fitted by cyclic coordinate descent
// on standardized features ("the least absolute shrinkage and selection
// operator", §4.3). It drives the coefficients of unimportant features to
// exactly zero — the paper uses this both to speed up convergence and to
// identify the three primary features (§4.4, Figure 4a).
type Lasso struct {
	lambda  float64
	expand  bool
	maxIter int
	tol     float64

	std    *Standardizer
	w      []float64
	bias   float64
	fitted bool
}

// NewLinearLasso returns "linear model, lasso regularization" (Table 7).
func NewLinearLasso(lambda float64) *Lasso {
	return &Lasso{lambda: lambda, maxIter: 1000, tol: 1e-7}
}

// NewQuadraticLasso returns "quadratic model, lasso regularization"
// (Table 7) — one of the two models MCT deploys.
func NewQuadraticLasso(lambda float64) *Lasso {
	return &Lasso{lambda: lambda, expand: true, maxIter: 1000, tol: 1e-7}
}

// Name implements Predictor.
func (l *Lasso) Name() string {
	if l.expand {
		return NameQuadraticLasso
	}
	return NameLinearLasso
}

func softThreshold(rho, lambda float64) float64 {
	switch {
	case rho > lambda:
		return rho - lambda
	case rho < -lambda:
		return rho + lambda
	default:
		return 0
	}
}

// Fit implements Predictor via cyclic coordinate descent.
func (l *Lasso) Fit(X [][]float64, y []float64) error {
	if err := checkData(X, y); err != nil {
		return err
	}
	if l.expand {
		X = ExpandQuadraticAll(X)
	}
	l.std = FitStandardizer(X)
	Z := l.std.ApplyAll(X)

	n := len(Z)
	d := len(Z[0])

	var ybar float64
	for _, v := range y {
		ybar += v
	}
	ybar /= float64(n)

	// Residuals start as centered targets (all weights zero).
	w := make([]float64, d)
	r := make([]float64, n)
	for i, v := range y {
		r[i] = v - ybar
	}

	// Column squared norms.
	colSq := make([]float64, d)
	for _, row := range Z {
		for j, v := range row {
			colSq[j] += v * v
		}
	}
	nl := l.lambda * float64(n)

	for iter := 0; iter < l.maxIter; iter++ {
		var maxDelta float64
		for j := 0; j < d; j++ {
			if colSq[j] == 0 {
				continue
			}
			// rho = Σ_i z_ij (r_i + z_ij w_j)
			var rho float64
			for i := 0; i < n; i++ {
				rho += Z[i][j] * r[i]
			}
			rho += colSq[j] * w[j]
			wNew := softThreshold(rho, nl) / colSq[j]
			if wNew != w[j] { //mctlint:ignore floateq exact no-op guard: epsilon would skip real (tiny) coordinate updates and change convergence
				delta := wNew - w[j]
				for i := 0; i < n; i++ {
					r[i] -= delta * Z[i][j]
				}
				if ad := math.Abs(delta); ad > maxDelta {
					maxDelta = ad
				}
				w[j] = wNew
			}
		}
		if maxDelta < l.tol {
			break
		}
	}
	l.w = w
	l.bias = ybar
	l.fitted = true
	return nil
}

// Predict implements Predictor.
func (l *Lasso) Predict(x []float64) float64 {
	if !l.fitted {
		return 0
	}
	if l.expand {
		x = ExpandQuadratic(x)
	}
	z := l.std.Apply(x)
	var s float64
	for j, v := range z {
		s += l.w[j] * v
	}
	return l.bias + s
}

// Coefficients returns the fitted weights on standardized features and the
// intercept (nil before fitting). Zero entries are features lasso deemed
// unimportant.
func (l *Lasso) Coefficients() (w []float64, bias float64) {
	if !l.fitted {
		return nil, 0
	}
	return append([]float64(nil), l.w...), l.bias
}
