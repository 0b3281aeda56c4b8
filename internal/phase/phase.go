// Package phase implements the lightweight phase detector of §5.1: memory
// workload (read + write requests) is sampled from performance counters
// every I instructions; a two-sided Student's t-test (Welch) compares the
// last 100·I instructions against the history of up to 1000·I instructions,
// and a score above a threshold declares a new phase, clearing the history.
// The detector reacts only to dramatic shifts — minor variation is absorbed
// by normalization and fine-grained sampling.
package phase

import (
	"fmt"

	"mct/internal/stats"
)

// Options configures a Detector.
type Options struct {
	// IntervalInsts is I: one workload observation per I instructions.
	IntervalInsts uint64
	// ShortWindows is the number of recent intervals forming the test
	// window (paper: 100).
	ShortWindows int
	// LongWindows is the history length in intervals (paper: 1000).
	LongWindows int
	// Threshold is the t-score above which a new phase is declared
	// (paper: 15).
	Threshold float64
}

// Validate checks option sanity.
func (o Options) Validate() error {
	if o.IntervalInsts == 0 {
		return fmt.Errorf("phase: zero interval")
	}
	if o.ShortWindows < 2 || o.LongWindows <= o.ShortWindows {
		return fmt.Errorf("phase: windows must satisfy 2 ≤ short < long (got %d/%d)", o.ShortWindows, o.LongWindows)
	}
	if o.Threshold <= 0 {
		return fmt.Errorf("phase: non-positive threshold %g", o.Threshold)
	}
	return nil
}

// Detector consumes per-interval memory-workload counts and reports phase
// changes. It is not safe for concurrent use.
type Detector struct {
	opt  Options
	hist []float64 // ring of recent interval workloads, oldest first
}

// New returns a Detector; it panics on invalid options (programmer error).
func New(opt Options) *Detector {
	if err := opt.Validate(); err != nil {
		panic(err)
	}
	return &Detector{opt: opt, hist: make([]float64, 0, opt.LongWindows)}
}

// Observe folds in the memory-request count of the latest interval and
// returns the current t-score and whether a new phase was declared. On a
// new phase the history is cleared ("clear off the counters and restart").
func (d *Detector) Observe(memRequests float64) (score float64, newPhase bool) {
	d.hist = append(d.hist, memRequests)
	if len(d.hist) > d.opt.LongWindows {
		d.hist = d.hist[1:]
	}
	score = d.Score()
	if score > d.opt.Threshold {
		d.Reset()
		return score, true
	}
	return score, false
}

// Score computes the Welch t-score between the most recent ShortWindows
// intervals and the full history. It returns 0 until the history holds at
// least 2·ShortWindows intervals (the test needs a meaningful long window).
func (d *Detector) Score() float64 {
	n := len(d.hist)
	short := d.opt.ShortWindows
	if n < 2*short {
		return 0
	}
	recent := d.hist[n-short:]
	long := d.hist // "the past 1000·I instructions" includes the recent window
	return stats.TScore(
		stats.Mean(recent), stats.Variance(recent), len(recent),
		stats.Mean(long), stats.Variance(long), len(long),
	)
}

// Reset clears the history (called automatically on a detected phase).
func (d *Detector) Reset() { d.hist = d.hist[:0] }
