// Package stats provides the statistical primitives used across MCT:
// mean and variance, Welch's t-test (the phase detector's core), the
// coefficient of determination (the paper's accuracy metric, Eq. 3), and
// geometric means (used for cross-benchmark aggregation).
package stats

import (
	"math"

	"mct/internal/floats"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for fewer than two
// samples).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// TScore returns the absolute Welch's t statistic for the difference of the
// means of two samples given their means, variances and sizes. It returns 0
// when either sample is too small or both variances vanish. This is the
// "two-sided Student's t-test" score of §5.1: larger scores indicate higher
// confidence that the two windows have different mean memory workload.
func TScore(mean1, var1 float64, n1 int, mean2, var2 float64, n2 int) float64 {
	if n1 < 2 || n2 < 2 {
		return 0
	}
	se := var1/float64(n1) + var2/float64(n2)
	if se <= 0 {
		if floats.Eq(mean1, mean2) {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(mean1-mean2) / math.Sqrt(se)
}

// R2 returns the coefficient-of-determination accuracy metric from Eq. 3 of
// the paper: max(0, 1 - ‖pred-true‖² / ‖true-mean(true)‖²). Slices must have
// equal length; it returns 0 for fewer than two observations or when the
// true data has no variance and the prediction is off.
func R2(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(truth) < 2 {
		return 0
	}
	m := Mean(truth)
	var ssRes, ssTot float64
	for i, t := range truth {
		r := t - pred[i]
		ssRes += r * r
		d := t - m
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	r2 := 1 - ssRes/ssTot
	if r2 < 0 {
		return 0
	}
	return r2
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values contribute as a tiny epsilon so a single zero cannot
// produce NaN in reports.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			x = 1e-12
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
