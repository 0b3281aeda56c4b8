package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

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
}

// DefaultOptions returns full-fidelity settings (full space, all
// benchmarks).
func DefaultOptions() Options {
	return Options{
		Benchmarks:     trace.Names(),
		Accesses:       30_000,
		Stride:         1,
		LifetimeTarget: 8,
		Sim:            sim.DefaultOptions(),
		Seed:           1,
	}
}

// QuickOptions returns reduced-fidelity settings for tests: a strided
// subset of the space and shorter traces.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Accesses = 8_000
	o.Stride = 23
	return o
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

// sweepKey identifies a cached sweep. Besides the sweep-shape parameters it
// carries a digest of the full sim.Options: two callers with different
// simulated systems (cache geometry, timing, energy model, …) must never
// share a cached sweep.
type sweepKey struct {
	bench    string
	accesses int
	stride   int
	wq       bool
	target   float64
	seed     int64
	sim      uint64
}

// simDigest hashes every sim.Options field into a cache-key component.
// Seed is normalized out because the key carries it separately (Options.Seed
// overwrites it before Prepare). The digest covers nested value structs
// (nvm.Params, energy.Model) via their printed representation.
func simDigest(o sim.Options) uint64 {
	o.Seed = 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", o)
	return h.Sum64()
}

// sweepKeyFor builds the cache key RunSweep uses (exported to tests via the
// package boundary).
func sweepKeyFor(benchmark string, includeWQ bool, opt Options) sweepKey {
	return sweepKey{
		bench:    benchmark,
		accesses: opt.Accesses,
		stride:   opt.Stride,
		wq:       includeWQ,
		target:   opt.LifetimeTarget,
		seed:     opt.Seed,
		sim:      simDigest(opt.Sim),
	}
}

// sweepEntry is one single-flight cache slot: the first caller of a key runs
// the computation inside once; concurrent callers of the same key block on
// once and then share the identical *Sweep.
type sweepEntry struct {
	once sync.Once
	s    *Sweep
	err  error
}

var (
	sweepMu    sync.Mutex
	sweepCache = map[sweepKey]*sweepEntry{}
)

// RunSweep evaluates the configuration space (wear quota included when
// includeWQ) on one benchmark, caching results in-process so experiments
// sharing a sweep don't recompute it. It is safe for concurrent use:
// callers racing on the same key share a single computation. Configurations
// are evaluated on a bounded worker pool (opt.Workers); results are
// identical at any worker count. Cancelling ctx aborts the computation with
// ctx.Err() and leaves both caches consistent — the failed in-process entry
// is dropped (a retry recomputes) and nothing partial reaches the disk
// cache (it is written atomically, only on success).
func RunSweep(ctx context.Context, benchmark string, includeWQ bool, opt Options) (*Sweep, error) {
	key := sweepKeyFor(benchmark, includeWQ, opt)
	sweepMu.Lock()
	e, ok := sweepCache[key]
	if !ok {
		e = &sweepEntry{}
		sweepCache[key] = e
	}
	sweepMu.Unlock()

	e.once.Do(func() { e.s, e.err = computeSweep(ctx, benchmark, includeWQ, key, opt) })
	if e.err != nil {
		// Don't cache failures: drop the entry (if it is still ours) so a
		// later call can retry. This is also what keeps the in-process
		// cache consistent across cancellation.
		sweepMu.Lock()
		if sweepCache[key] == e {
			delete(sweepCache, key)
		}
		sweepMu.Unlock()
	}
	return e.s, e.err
}

// computeSweep produces the sweep for key: from the optional disk cache if
// present, otherwise by brute-force evaluation on a worker pool.
func computeSweep(ctx context.Context, benchmark string, includeWQ bool, key sweepKey, opt Options) (*Sweep, error) {
	space := config.NewSpace(config.SpaceOptions{IncludeWearQuota: includeWQ, WearQuotaTarget: opt.LifetimeTarget})

	// Optional cross-process disk cache (MCT_SWEEP_CACHE).
	if s := loadSweepFromDisk(key, space); s != nil {
		return s, nil
	}

	simOpt := opt.Sim
	simOpt.Seed = opt.Seed
	prep, err := sim.Prepare(benchmark, 0, opt.Accesses, simOpt)
	if err != nil {
		return nil, err
	}

	stride := opt.Stride
	if stride < 1 {
		stride = 1
	}
	indices := make([]int, 0, (space.Len()+stride-1)/stride)
	for i := 0; i < space.Len(); i += stride {
		indices = append(indices, i)
	}

	eopt := engine.Options{Workers: opt.Workers, Obs: opt.Obs}
	if opt.Obs != nil {
		opt.Obs.Counter("experiments.sweeps_computed").Inc()
	}
	if opt.Events != nil {
		events, total := opt.Events, len(indices)
		eopt.OnDone = func(done, _ int) {
			// Same thinning (every 500 completions) and text as the old
			// serial loop; OnDone counts are monotone at any worker count,
			// so the emitted lines are byte-identical.
			if done%500 == 0 {
				events(obs.Event{
					Scope: "sweep", Item: benchmark, Done: done, Total: total,
					Text: fmt.Sprintf("  sweep %s: %d/%d configs", benchmark, done, total),
				})
			}
		}
	}
	metrics, err := engine.Map(ctx, len(indices), eopt, func(ctx context.Context, k int) (sim.Metrics, error) {
		m, err := prep.Evaluate(space.At(indices[k]))
		if err != nil {
			return sim.Metrics{}, fmt.Errorf("experiments: sweep %s config %d: %w", benchmark, indices[k], err)
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}

	s := &Sweep{Benchmark: benchmark, Space: space, Indices: indices, Metrics: metrics}
	if s.Baseline, err = prep.Evaluate(baselineAt(opt.LifetimeTarget)); err != nil {
		return nil, err
	}
	if s.Default, err = prep.Evaluate(config.Default()); err != nil {
		return nil, err
	}

	storeSweepToDisk(key, s)
	return s, nil
}

// baselineAt is the static policy with its wear-quota target set to the
// objective's lifetime floor.
func baselineAt(target float64) config.Config {
	b := config.StaticBaseline()
	if target > 0 {
		b.WearQuotaTarget = target
	}
	return b
}

// ResetSweepCache clears the in-process sweep cache; the daemon calls it
// after every experiment job. In-flight computations finish against their
// old entries and are not re-cached.
func ResetSweepCache() {
	sweepMu.Lock()
	sweepCache = map[sweepKey]*sweepEntry{}
	sweepMu.Unlock()
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
