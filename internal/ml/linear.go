package ml

import (
	"mct/internal/mat"
)

// Linear is ordinary (or ridge-stabilized) least-squares regression on
// standardized features with an intercept. Lambda 0 gives plain OLS with a
// tiny numerical jitter to keep collinear designs solvable.
type Linear struct {
	lambda float64
	expand bool // apply quadratic expansion before fitting

	std    *Standardizer
	w      []float64
	bias   float64
	fitted bool
}

// NewLinear returns a linear-model predictor ("linear model, no
// regularization" in Table 7; a positive lambda makes it ridge).
func NewLinear(lambda float64) *Linear { return &Linear{lambda: lambda} }

// NewQuadratic returns a quadratic-model predictor without regularization
// ("quadratic model, no regularization" in Table 7): quadratic feature
// expansion followed by least squares.
func NewQuadratic(lambda float64) *Linear { return &Linear{lambda: lambda, expand: true} }

// Name implements Predictor.
func (l *Linear) Name() string {
	if l.expand {
		return NameQuadratic
	}
	return NameLinear
}

// Fit implements Predictor.
func (l *Linear) Fit(X [][]float64, y []float64) error {
	if err := checkData(X, y); err != nil {
		return err
	}
	if l.expand {
		X = ExpandQuadraticAll(X)
	}
	l.std = FitStandardizer(X)
	Z := l.std.ApplyAll(X)

	// Center the target; the intercept absorbs the mean.
	var ybar float64
	for _, v := range y {
		ybar += v
	}
	ybar /= float64(len(y))
	yc := make([]float64, len(y))
	for i, v := range y {
		yc[i] = v - ybar
	}

	d := len(Z[0])
	flat := make([]float64, 0, len(Z)*d)
	for _, row := range Z {
		flat = append(flat, row...)
	}
	xm := mat.NewDenseData(len(Z), d, flat)
	lambda := l.lambda
	if lambda <= 0 {
		lambda = 1e-6 // numerical stabilizer for exact-OLS collinearity
	}
	w, err := mat.SolveRidge(xm, yc, lambda)
	if err != nil {
		return err
	}
	l.w = w
	l.bias = ybar
	l.fitted = true
	return nil
}

// Predict implements Predictor.
func (l *Linear) Predict(x []float64) float64 {
	if !l.fitted {
		return 0
	}
	if l.expand {
		x = ExpandQuadratic(x)
	}
	z := l.std.Apply(x)
	return l.bias + mat.Dot(l.w, z)
}
