package mct

import "mct/internal/obs"

// Observability types, re-exported from internal/obs.
type (
	// Registry is a deterministic set of named counters, gauges and
	// fixed-bucket histograms. One registry can serve a machine, its
	// runtime and the evaluation engine at once (pass it via
	// WithObserver); its sorted JSON dump is byte-identical at any worker
	// count.
	Registry = obs.Registry
	// TraceEvent is one observation on the trace stream: progress from
	// sweeps and experiments, decision traces from the runtime.
	TraceEvent = obs.Event
	// TraceSink consumes trace events (must be safe for concurrent use).
	TraceSink = obs.TraceSink
)

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// callOpts is the merged option state of one facade call.
type callOpts struct {
	sim     *SimOptions
	tiers   *TierConfig
	runtime *RuntimeOptions
	exp     *ExperimentOptions
	reg     *Registry
	workers int
	// workersSet distinguishes WithWorkers(0) ("use GOMAXPROCS") from
	// "option absent".
	workersSet bool
}

// Option configures one facade call. Every entry point accepts any option;
// options that do not apply to a call are ignored, so one option slice can
// be reused across NewMachine, NewRuntime and RunExperiment.
type Option func(*callOpts)

// apply merges opts over defaults.
func applyOpts(opts []Option) callOpts {
	var c callOpts
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// WithSimOptions sets explicit simulator options (default:
// DefaultSimOptions).
func WithSimOptions(o SimOptions) Option {
	return func(c *callOpts) { c.sim = &o }
}

// WithTiers sets the memory-hierarchy composition of the simulated
// system: TierConfig{DRAMCache: true} inserts the DRAM cache tier between
// the LLC and the NVM controller (see HybridTiers for the standard hybrid
// setup). It layers over WithSimOptions — the tier composition is applied
// to whatever simulator options the call resolved — so the same option
// slice drives NewMachine, Evaluate and RunExperiment onto the identical
// hierarchy.
func WithTiers(t TierConfig) Option {
	return func(c *callOpts) { c.tiers = &t }
}

// WithRuntimeOptions sets explicit MCT runtime options (default:
// DefaultRuntimeOptions).
func WithRuntimeOptions(o RuntimeOptions) Option {
	return func(c *callOpts) { c.runtime = &o }
}

// WithExperimentOptions sets explicit experiment driver options (default:
// DefaultExperimentOptions).
func WithExperimentOptions(o ExperimentOptions) Option {
	return func(c *callOpts) { c.exp = &o }
}

// WithObserver attaches a metrics registry to the call: machines publish
// the cache/nvm families, runtimes the core family, and evaluation
// fan-outs the engine family, all onto reg. Dump it with reg.DumpJSON().
func WithObserver(reg *Registry) Option {
	return func(c *callOpts) { c.reg = reg }
}

// WithWorkers bounds evaluation parallelism (0 = GOMAXPROCS). Results and
// stable metric dumps are byte-identical at any worker count.
func WithWorkers(n int) Option {
	return func(c *callOpts) { c.workers = n; c.workersSet = true }
}
