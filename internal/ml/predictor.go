// Package ml implements the learning stack of §4.3 from scratch: linear and
// quadratic regression with and without lasso regularization, stochastic
// gradient boosting over regression trees, a hierarchical Bayesian
// multi-task model, and the offline mean predictor — together with the
// quadratic feature expansion, per-feature standardization, and the
// normalization-to-baseline technique of §4.4.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotFitted is returned by Predict when Fit has not succeeded.
var ErrNotFitted = errors.New("ml: predictor is not fitted")

// ErrBadData is returned when the training data is malformed.
var ErrBadData = errors.New("ml: malformed training data")

// Predictor learns a scalar objective from configuration feature vectors.
type Predictor interface {
	// Fit trains on rows X with targets y (len(X) == len(y) > 0; all rows
	// the same width).
	Fit(X [][]float64, y []float64) error
	// Predict returns the estimate for one feature vector. It returns 0
	// before a successful Fit.
	Predict(x []float64) float64
	// Name identifies the model family.
	Name() string
}

// checkData validates the common Fit preconditions.
func checkData(X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("%w: %d rows, %d targets", ErrBadData, len(X), len(y))
	}
	w := len(X[0])
	if w == 0 {
		return fmt.Errorf("%w: empty feature vectors", ErrBadData)
	}
	for i, row := range X {
		if len(row) != w {
			return fmt.Errorf("%w: row %d has width %d, want %d", ErrBadData, i, len(row), w)
		}
	}
	return nil
}

// Known model names accepted by New.
const (
	NameOffline        = "offline"
	NameLinear         = "linear"
	NameLinearLasso    = "linear-lasso"
	NameQuadratic      = "quadratic"
	NameQuadraticLasso = "quadratic-lasso"
	NameGBoost         = "gboost"
	NameHBayes         = "hbayes"
)

// New constructs a predictor by model name with the defaults used in the
// experiments. Offline and hierarchical-Bayes predictors need offline data
// and have dedicated constructors (NewOffline, NewHierarchicalBayes).
func New(name string) (Predictor, error) {
	switch name {
	case NameLinear:
		return NewLinear(0), nil
	case NameLinearLasso:
		return NewLinearLasso(DefaultLassoLambda), nil
	case NameQuadratic:
		return NewQuadratic(0), nil
	case NameQuadraticLasso:
		return NewQuadraticLasso(DefaultLassoLambda), nil
	case NameGBoost:
		return NewGBoost(DefaultGBoostOptions()), nil
	default:
		return nil, fmt.Errorf("ml: unknown model %q", name)
	}
}

// Standardizer performs per-column z-score standardization fitted on
// training data.
type Standardizer struct {
	mean, scale []float64
}

// FitStandardizer computes column means and scales (unit standard
// deviation; constant columns get scale 1 so they standardize to 0).
func FitStandardizer(X [][]float64) *Standardizer {
	d := len(X[0])
	n := float64(len(X))
	s := &Standardizer{mean: make([]float64, d), scale: make([]float64, d)}
	for _, row := range X {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			d := v - s.mean[j]
			s.scale[j] += d * d
		}
	}
	for j := range s.scale {
		s.scale[j] = math.Sqrt(s.scale[j] / n)
		if s.scale[j] == 0 {
			s.scale[j] = 1
		}
	}
	return s
}

// Apply standardizes one row into a new slice.
func (s *Standardizer) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.mean[j]) / s.scale[j]
	}
	return out
}

// ApplyAll standardizes all rows.
func (s *Standardizer) ApplyAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.Apply(row)
	}
	return out
}
