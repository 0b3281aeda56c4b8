// Package floats provides the epsilon comparison helpers required by the
// floateq analyzer (internal/analysis): exact ==/!= between float operands is
// forbidden outside tests because accumulated rounding error silently flips
// such branches and shifts simulated IPC/lifetime/energy, breaking the
// reproduced figure shapes.
package floats

import "math"

// Tol is the default relative tolerance used by Eq. It is loose enough to
// absorb double-rounding across the simulator's accumulation paths and
// tight enough to separate the discrete knob levels of the configuration
// space (which differ by ≥1e-2).
const Tol = 1e-9

// Eq reports whether a and b are equal within a relative tolerance of Tol
// (absolute near zero). NaN equals nothing, mirroring IEEE ==.
func Eq(a, b float64) bool {
	return EqTol(a, b, Tol)
}

// EqTol is Eq with an explicit tolerance.
func EqTol(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol { // covers exact equality, ±Inf vs itself excepted below
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b //mctlint:ignore floateq infinities compare exactly by definition
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}
