// Package core implements Memory Cocktail Therapy itself — the paper's
// contribution. It composes the substrates: a sampling plan over the
// configuration space, the cyclic fine-grained sampling runtime,
// normalization to the baseline configuration, the learned predictors, the
// user-defined constrained optimization of §3.2, the wear-quota fixup of
// §5.3, and the monitoring / health-checking loop of §5.4 with phase
// detection (§5.1).
package core

import (
	"fmt"
	"math"

	"mct/internal/config"
	"mct/internal/floats"
)

// Metric indexes the tradeoff space of §4.1.2.
type Metric int

// The three objectives.
const (
	MetricIPC Metric = iota
	MetricLifetime
	MetricEnergy
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case MetricIPC:
		return "IPC"
	case MetricLifetime:
		return "lifetime"
	case MetricEnergy:
		return "energy"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Constraint bounds one metric. Zero-valued bounds are inactive.
type Constraint struct {
	Metric Metric
	Min    float64
	Max    float64
}

// Objective is a user-defined optimization goal: hard constraints, an
// optional relative-IPC floor ("within 95% of the maximum IPC"), and the
// metric to optimize among the survivors. The paper's default objective is
// Default(8): minimize energy subject to lifetime ≥ 8 years and IPC ≥
// 0.95·max.
type Objective struct {
	Constraints []Constraint
	// RelativeIPCFloor keeps only configurations whose predicted IPC is at
	// least this fraction of the best predicted IPC among
	// constraint-satisfying configurations (0 disables).
	RelativeIPCFloor float64
	Optimize         Metric
	Maximize         bool
}

// Default returns the paper's objective for a given minimum lifetime:
//
//	min Energy  s.t.  Lifetime ≥ years,  IPC ≥ 0.95·IPC*.
func Default(years float64) Objective {
	return Objective{
		Constraints:      []Constraint{{Metric: MetricLifetime, Min: years}},
		RelativeIPCFloor: 0.95,
		Optimize:         MetricEnergy,
		Maximize:         false,
	}
}

// MinLifetime returns the objective's lifetime floor (0 if none) — the
// wear-quota fixup target.
func (o Objective) MinLifetime() float64 {
	for _, c := range o.Constraints {
		if c.Metric == MetricLifetime && c.Min > 0 {
			return c.Min
		}
	}
	return 0
}

// Baseline returns the static baseline policy (config.StaticBaseline) with
// its wear-quota target at the objective's lifetime floor, when it has one:
// the configuration the runtime normalizes against and health-checks with,
// and the static policy MCT is compared to.
func (o Objective) Baseline() config.Config {
	b := config.StaticBaseline()
	if lt := o.MinLifetime(); lt > 0 {
		b.WearQuotaTarget = lt
	}
	return b
}

// Validate checks the objective's structure.
func (o Objective) Validate() error {
	if o.RelativeIPCFloor < 0 || o.RelativeIPCFloor > 1 {
		return fmt.Errorf("core: relative IPC floor %g outside [0,1]", o.RelativeIPCFloor)
	}
	if o.Optimize < MetricIPC || o.Optimize > MetricEnergy {
		return fmt.Errorf("core: unknown optimize metric %d", int(o.Optimize))
	}
	for _, c := range o.Constraints {
		if c.Metric < MetricIPC || c.Metric > MetricEnergy {
			return fmt.Errorf("core: unknown constraint metric %d", int(c.Metric))
		}
		if c.Max != 0 && c.Max < c.Min {
			return fmt.Errorf("core: constraint on %v has max %g < min %g", c.Metric, c.Max, c.Min)
		}
	}
	return nil
}

func (o Objective) satisfies(v [3]float64) bool {
	for _, c := range o.Constraints {
		x := v[c.Metric]
		if c.Min != 0 && x < c.Min {
			return false
		}
		if c.Max != 0 && x > c.Max {
			return false
		}
	}
	return true
}

// SelectOptimal applies the objective to per-configuration predictions
// (rows of [IPC, lifetime, energy]) and returns the winning index. ok is
// false when no configuration satisfies the constraints; in that case idx
// is the configuration with the largest margin on the most-violated
// constraint dimension (a best-effort fallback — MCT then relies on the
// wear-quota fixup for the lifetime guarantee).
func SelectOptimal(pred [][3]float64, o Objective) (idx int, ok bool) {
	if len(pred) == 0 {
		return -1, false
	}

	// Pass 1: constraint-qualified set and its best IPC.
	bestIPC := math.Inf(-1)
	anyQualified := false
	for _, v := range pred {
		if o.satisfies(v) {
			anyQualified = true
			if v[MetricIPC] > bestIPC {
				bestIPC = v[MetricIPC]
			}
		}
	}

	if !anyQualified {
		// Fallback: maximize the constrained metric that is hardest to
		// meet (the lifetime floor, under the paper's objective).
		best := 0
		bestScore := math.Inf(-1)
		for i, v := range pred {
			score := 0.0
			for _, c := range o.Constraints {
				if c.Min != 0 {
					score += v[c.Metric] / c.Min
				}
				if c.Max != 0 {
					score -= v[c.Metric] / c.Max
				}
			}
			if score > bestScore {
				bestScore = score
				best = i
			}
		}
		return best, false
	}

	floor := o.RelativeIPCFloor * bestIPC

	best := -1
	bestVal := math.Inf(1)
	if o.Maximize {
		bestVal = math.Inf(-1)
	}
	for i, v := range pred {
		if !o.satisfies(v) || v[MetricIPC] < floor {
			continue
		}
		x := v[o.Optimize]
		if (o.Maximize && x > bestVal) || (!o.Maximize && x < bestVal) {
			bestVal = x
			best = i
		}
	}
	if best < 0 {
		// Only possible through floating-point edge cases; fall back to
		// the best-IPC qualified configuration.
		for i, v := range pred {
			if o.satisfies(v) && floats.Eq(v[MetricIPC], bestIPC) {
				return i, true
			}
		}
	}
	return best, true
}
