package experiments

import (
	"context"
	"fmt"

	"mct/internal/config"
	"mct/internal/core"
	"mct/internal/engine"
	"mct/internal/obs"
	"mct/internal/sim"
	"mct/internal/trace"
)

// Options configures the experiment drivers. The defaults balance fidelity
// against the cost of brute-force sweeps (the paper burned 300,000
// CPU-hours on its sweep; ours finishes in minutes).
type Options struct {
	// Benchmarks to evaluate (default: all ten).
	Benchmarks []string
	// Accesses is the trace length per configuration evaluation.
	Accesses int
	// Stride evaluates every Stride-th configuration of the space in
	// brute-force sweeps (1 = full space; tests use larger strides).
	Stride int
	// LifetimeTarget is the default minimum-lifetime objective (years).
	LifetimeTarget float64
	// TotalInsts is the length of each MCT end-to-end run (Figures 7–10,
	// wq-learning, ablation-settle).
	TotalInsts uint64
	// SampleCounts is Figure 2's training-sample axis.
	SampleCounts []int
	// Trials is how many random training subsets the learning experiments
	// (Figures 2 and 3, ablation-norm) average over.
	Trials int
	// Sim is the simulated system.
	Sim sim.Options
	// Seed drives workload and sampling randomness.
	Seed int64
	// Workers bounds the parallelism of sweep and driver fan-out; 0 means
	// runtime.GOMAXPROCS(0). Results are deterministic at any value.
	Workers int
	// Events, when non-nil, receives structured progress events. Use
	// obs.TextSink to recover the former plain-text progress lines.
	Events obs.TraceSink
	// Obs, when non-nil, receives the engine's metric family from every
	// evaluation fan-out (plus experiments.sweeps_computed). Only
	// schedule-independent counters land in the stable dump, so sweep
	// dumps stay byte-identical at any worker count.
	Obs *obs.Registry
	// Sweeps, when non-nil, is the cache RunSweep goes through; its owner
	// decides its lifetime and whether it has a disk layer. Nil computes
	// every sweep afresh, except that Run gives a nil Sweeps one in-memory
	// cache for the call, so one experiment still computes a repeated
	// sweep once.
	Sweeps *SweepCache
}

// errScale is the error for an unset run scale (TotalInsts, Trials,
// SampleCounts). The drivers have no fallback, so each rejects an unset one
// it reads rather than run to a table of zeros.
func (o Options) errScale() error {
	return fmt.Errorf("experiments: TotalInsts %d, Trials %d, SampleCounts %v: every run scale the experiment reads must be set (start from DefaultOptions or QuickOptions)",
		o.TotalInsts, o.Trials, o.SampleCounts)
}

// DefaultOptions returns full-fidelity settings (full space, all
// benchmarks).
func DefaultOptions() Options {
	return Options{
		Benchmarks:     trace.Names(),
		Accesses:       30_000,
		Stride:         1,
		LifetimeTarget: 8,
		TotalInsts:     15_000_000,
		SampleCounts:   []int{10, 20, 40, 77, 120, 160, 200},
		Trials:         3,
		Sim:            sim.DefaultOptions(),
		Seed:           1,
	}
}

// QuickOptions returns reduced-fidelity settings for tests: a strided
// subset of the space, shorter traces and MCT runs, fewer sample counts
// and trials.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Accesses = 8_000
	o.Stride = 23
	o.TotalInsts = 8_000_000
	o.SampleCounts = []int{10, 20, 40, 77, 120}
	o.Trials = 2
	return o
}

// seededSim returns the simulator options with the experiment's seed.
func (o Options) seededSim() sim.Options {
	s := o.Sim
	s.Seed = o.Seed
	return s
}

// seededMulti is the multi-core system of Figure 10 under the run's tier
// composition and seed.
func (o Options) seededMulti() sim.MultiOptions {
	mo := sim.DefaultMultiOptions()
	mo.Seed = o.Seed
	mo.Tiers = o.Sim.Tiers
	return mo
}

// Sweep holds the brute-force evaluation of (a strided subset of) a
// configuration space on one benchmark — the raw material for "ideal"
// selection and for training/validating predictors on ground truth.
type Sweep struct {
	Benchmark string
	Space     *config.Space
	// Indices are the evaluated configuration indices (ascending).
	Indices []int
	// Metrics[i] is the measurement of Space.At(Indices[i]).
	Metrics []sim.Metrics
	// Baseline and Default are the static-policy and default-system
	// measurements on the identical trace.
	Baseline sim.Metrics
	Default  sim.Metrics
}

// RunSweep evaluates the configuration space (wear quota included when
// includeWQ) on one benchmark. With opt.Sweeps set it goes through that
// cache, so experiments sharing a sweep don't recompute it; with nil
// Sweeps it computes every time. It is safe for concurrent use: callers
// racing on the same key of one cache share a single computation.
// Configurations are evaluated on a bounded worker pool (opt.Workers);
// results are identical at any worker count. Cancelling ctx aborts the
// computation with ctx.Err() and leaves the cache consistent — the failed
// in-memory entry is dropped (a retry recomputes) and nothing partial
// reaches the disk layer (it is written atomically, only on success).
func RunSweep(ctx context.Context, benchmark string, includeWQ bool, opt Options) (*Sweep, error) {
	key := sweepKeyFor(benchmark, includeWQ, opt)
	compute := func() (*Sweep, error) { return computeSweep(ctx, benchmark, includeWQ, key, opt) }
	if opt.Sweeps == nil {
		return compute()
	}
	return opt.Sweeps.get(key, compute)
}

// computeSweep produces the sweep for key: from the cache's disk layer if
// present, otherwise by brute-force evaluation on a worker pool.
func computeSweep(ctx context.Context, benchmark string, includeWQ bool, key sweepKey, opt Options) (*Sweep, error) {
	space := config.NewSpace(config.SpaceOptions{IncludeWearQuota: includeWQ, WearQuotaTarget: opt.LifetimeTarget})
	if s := opt.Sweeps.load(key, space); s != nil {
		return s, nil
	}

	prep, err := sim.Prepare(benchmark, 0, opt.Accesses, opt.seededSim())
	if err != nil {
		return nil, err
	}

	indices := space.Strided(opt.Stride)

	// The baseline and default measurements ride the same fan-out as the
	// swept configurations, as its last two entries.
	cfgs := make([]config.Config, 0, len(indices)+2)
	for _, i := range indices {
		cfgs = append(cfgs, space.At(i))
	}
	cfgs = append(cfgs, core.Default(opt.LifetimeTarget).Baseline(), config.Default())

	eopt := engine.Options{Workers: opt.Workers, Obs: opt.Obs}
	if opt.Obs != nil {
		opt.Obs.Counter("experiments.sweeps_computed").Inc()
	}
	if opt.Events != nil {
		events, total := opt.Events, len(indices)
		eopt.OnDone = func(done, _ int) {
			// Every 500th configuration, counted in order across batch
			// completions at any worker count; the two extra entries only
			// lift the count past total, where nothing is emitted.
			if done%500 == 0 && done <= total {
				events(obs.Event{
					Scope: "sweep", Item: benchmark, Done: done, Total: total,
					Text: fmt.Sprintf("  sweep %s: %d/%d configs", benchmark, done, total),
				})
			}
		}
	}
	metrics, err := prep.EvaluateAll(ctx, cfgs, eopt)
	if err != nil {
		return nil, fmt.Errorf("experiments: sweep %s: %w", benchmark, err)
	}

	n := len(indices)
	s := &Sweep{Benchmark: benchmark, Space: space, Indices: indices, Metrics: metrics[:n:n],
		Baseline: metrics[n], Default: metrics[n+1]}

	opt.Sweeps.store(key, s)
	return s, nil
}

// Vectors returns the 10-dim encodings of the evaluated configurations.
func (s *Sweep) Vectors() [][]float64 {
	X := make([][]float64, len(s.Indices))
	for i, idx := range s.Indices {
		X[i] = s.Space.At(idx).Vector()
	}
	return X
}

// Targets returns the per-configuration values of one metric, optionally
// normalized to the baseline measurement.
func (s *Sweep) Targets(m core.Metric, normalize bool) []float64 {
	base := 1.0
	if normalize {
		switch m {
		case core.MetricIPC:
			base = s.Baseline.IPC
		case core.MetricLifetime:
			base = s.Baseline.LifetimeYears
		case core.MetricEnergy:
			base = s.Baseline.EnergyJ
		}
	}
	y := make([]float64, len(s.Metrics))
	for i, mt := range s.Metrics {
		switch m {
		case core.MetricIPC:
			y[i] = mt.IPC / base
		case core.MetricLifetime:
			y[i] = mt.LifetimeYears / base
		case core.MetricEnergy:
			y[i] = mt.EnergyJ / base
		}
	}
	return y
}

// TradeoffVectors returns the measured [IPC, lifetime, energy] rows.
func (s *Sweep) TradeoffVectors() [][3]float64 {
	out := make([][3]float64, len(s.Metrics))
	for i, mt := range s.Metrics {
		out[i] = mt.Vector()
	}
	return out
}

// Ideal applies an objective to the measured data and returns the winning
// position (index into s.Indices/Metrics) — the brute-force "ideal policy".
func (s *Sweep) Ideal(obj core.Objective) (pos int, ok bool) {
	return core.SelectOptimal(s.TradeoffVectors(), obj)
}
