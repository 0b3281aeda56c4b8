// Package phase implements the lightweight phase detector of §5.1: memory
// workload (read + write requests) is sampled from performance counters
// every I instructions; a two-sided Student's t-test (Welch) compares the
// last 100·I instructions against the history of up to 1000·I instructions,
// and a score above a threshold declares a new phase, clearing the history.
// The detector reacts only to dramatic shifts — minor variation is absorbed
// by normalization and fine-grained sampling.
package phase

import "mct/internal/stats"

// The detector's fixed windows and threshold. The paper observes every
// I=1M instructions with 100/1000-interval windows on billions of
// instructions; the simulator's phases last millions, so the windows are
// scaled down until the short one fits inside one coarse phase, and the
// threshold stays the paper's.
const (
	// shortWindows is the number of recent intervals forming the test
	// window (paper: 100).
	shortWindows = 40
	// longWindows is the history length in intervals (paper: 1000).
	longWindows = 400
	// Threshold is the t-score above which a new phase is declared.
	Threshold = 15
	// DefaultInterval is I for the simulator's runs (Figure 6, mct
	// -phases): the paper's 1M scaled down with the windows.
	DefaultInterval = 25_000
)

// Detector consumes per-interval memory-workload counts and reports phase
// changes. It is not safe for concurrent use.
type Detector struct {
	interval uint64
	hist     []float64 // ring of recent interval workloads, oldest first
}

// New returns a Detector fed one workload observation per intervalInsts
// instructions (I); it panics on a zero interval (programmer error).
func New(intervalInsts uint64) *Detector {
	if intervalInsts == 0 {
		panic("phase: zero interval")
	}
	return &Detector{interval: intervalInsts, hist: make([]float64, 0, longWindows)}
}

// Interval returns I, the instructions per observation.
func (d *Detector) Interval() uint64 { return d.interval }

// Observe folds in the memory-request count of the latest interval and
// returns the current t-score and whether a new phase was declared. On a
// new phase the history is cleared ("clear off the counters and restart").
func (d *Detector) Observe(memRequests float64) (score float64, newPhase bool) {
	d.hist = append(d.hist, memRequests)
	if len(d.hist) > longWindows {
		d.hist = d.hist[1:]
	}
	score = d.Score()
	if score > Threshold {
		d.Reset()
		return score, true
	}
	return score, false
}

// Score computes the Welch t-score between the most recent shortWindows
// intervals and the full history. It returns 0 until the history holds at
// least 2·shortWindows intervals (the test needs a meaningful long window).
func (d *Detector) Score() float64 {
	n := len(d.hist)
	if n < 2*shortWindows {
		return 0
	}
	recent := d.hist[n-shortWindows:]
	long := d.hist // "the past 1000·I instructions" includes the recent window
	return stats.TScore(
		stats.Mean(recent), stats.Variance(recent), len(recent),
		stats.Mean(long), stats.Variance(long), len(long),
	)
}

// Reset clears the history (called automatically on a detected phase).
func (d *Detector) Reset() { d.hist = d.hist[:0] }
