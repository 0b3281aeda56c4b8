// Package mct is the public API of the Memory Cocktail Therapy library — a
// reproduction of Deng et al., "Memory Cocktail Therapy: A General
// Learning-Based Framework to Optimize Dynamic Tradeoffs in NVMs"
// (MICRO-50, 2017).
//
// The library bundles:
//
//   - a trace-driven NVM system simulator (synthetic workloads → LLC → a
//     16-bank ReRAM controller with the mellow-writes technique family:
//     write cancellation, bank-aware and eager mellow writes, wear quota);
//   - the Mellow-Writes configuration space (Tables 2–3);
//   - a from-scratch learning stack (lasso/quadratic regression, gradient
//     boosting, hierarchical Bayes);
//   - the MCT runtime: phase detection, cyclic fine-grained sampling,
//     baseline normalization, constrained optimization, wear-quota fixup
//     and health checking;
//   - drivers that regenerate every table and figure of the paper's
//     evaluation.
//
// Quick start:
//
//	ctx := context.Background()
//	machine, _ := mct.NewMachine(ctx, "lbm", mct.StaticBaseline())
//	rt, _ := mct.NewRuntime(ctx, machine, mct.DefaultObjective(8))
//	result, _ := rt.Run(15_000_000)
//	fmt.Println(result.Testing.IPC, result.Testing.LifetimeYears)
//
// Every entry point is context-first and takes functional options; one
// option set serves construction, evaluation and experiments:
//
//	reg := mct.NewRegistry()
//	machine, _ := mct.NewMachine(ctx, "lbm", cfg,
//	    mct.WithSimOptions(simOpt), mct.WithObserver(reg))
//	rt, _ := mct.NewRuntime(ctx, machine, obj, mct.WithObserver(reg))
//	_, _ = rt.Run(2_000_000)
//	os.Stdout.Write(reg.DumpJSON()) // sorted, byte-stable metrics dump
//
// All simulation is deterministic and dependency-free (stdlib only).
package mct

import (
	"context"
	"io"

	"mct/internal/config"
	"mct/internal/core"
	"mct/internal/engine"
	"mct/internal/experiments"
	"mct/internal/hierarchy"
	"mct/internal/obs"
	"mct/internal/sim"
	"mct/internal/trace"
)

// Core configuration-space types.
type (
	// Config is one point of the Mellow-Writes configuration space.
	Config = config.Config
	// Space is an enumerated, indexed configuration space.
	Space = config.Space
	// SpaceOptions controls space enumeration.
	SpaceOptions = config.SpaceOptions
)

// Simulator types.
type (
	// Machine is a single-core simulated system executing one workload.
	Machine = sim.Machine
	// MultiMachine is the 4-core shared-memory system of §6.2.5.
	MultiMachine = sim.MultiMachine
	// Metrics reports IPC, lifetime and energy for a run or window.
	Metrics = sim.Metrics
	// SimOptions configures the simulated system.
	SimOptions = sim.Options
	// WorkloadSpec describes a synthetic benchmark.
	WorkloadSpec = trace.Spec
	// TierConfig selects the memory-hierarchy composition (NVM-only or
	// hybrid DRAM–NVM) and its knobs; pass it via WithTiers.
	TierConfig = config.TierConfig
	// Tier is one level of the composed memory hierarchy; Machine.Tiers
	// exposes the live pipeline top-down.
	Tier = hierarchy.Tier
)

// MCT runtime types.
type (
	// Objective is a user-defined constrained-optimization goal (§3.2).
	Objective = core.Objective
	// Constraint bounds one metric within an Objective.
	Constraint = core.Constraint
	// Runtime drives MCT over a live machine.
	Runtime = core.Runtime
	// RuntimeOptions configures the MCT runtime.
	RuntimeOptions = core.Options
	// Result is a runtime execution outcome.
	Result = core.Result
	// Decision is one learning outcome (chosen configuration etc.).
	Decision = core.Decision
	// Metric indexes the tradeoff space (IPC, lifetime, energy).
	Metric = core.Metric
)

// Tradeoff-space metric indices.
const (
	MetricIPC      = core.MetricIPC
	MetricLifetime = core.MetricLifetime
	MetricEnergy   = core.MetricEnergy
)

// DefaultConfig returns the paper's "default" system configuration: fast
// 1× writes, no mellow-writes techniques.
func DefaultConfig() Config { return config.Default() }

// StaticBaseline returns the best static policy from prior work (the
// paper's comparison baseline).
func StaticBaseline() Config { return config.StaticBaseline() }

// EnumerateConfigs returns the full legal configuration space.
func EnumerateConfigs(opt SpaceOptions) []Config { return config.Enumerate(opt) }

// NewSpace enumerates and indexes the configuration space.
func NewSpace(opt SpaceOptions) *Space { return config.NewSpace(opt) }

// DefaultObjective returns the paper's objective for a minimum lifetime:
// minimize energy subject to lifetime ≥ years and IPC ≥ 0.95·max (§3.2).
func DefaultObjective(years float64) Objective { return core.Default(years) }

// Benchmarks lists the available synthetic workloads (the paper's ten).
func Benchmarks() []string { return trace.Names() }

// Mixes lists the multi-program workload names of Table 11.
func Mixes() []string { return trace.MixNames() }

// MixMembers returns the four benchmark names of a Table 11 mix.
func MixMembers(mix string) ([]string, error) {
	specs, err := trace.MixByName(mix)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names, nil
}

// DefaultSimOptions returns the Table 8/9 system configuration.
func DefaultSimOptions() SimOptions { return sim.DefaultOptions() }

// HybridTiers returns the standard hybrid DRAM–NVM composition: the DRAM
// cache tier enabled at its default hot-page promotion threshold. Pass it
// via WithTiers; tune the threshold through the returned value.
func HybridTiers() TierConfig { return config.TierConfig{DRAMCache: true} }

// simOptions resolves the effective simulator options of one facade call:
// explicit options (or defaults) with the tier composition layered over.
func simOptions(c callOpts) SimOptions {
	opt := sim.DefaultOptions()
	if c.sim != nil {
		opt = *c.sim
	}
	if c.tiers != nil {
		opt.Tiers = *c.tiers
	}
	return opt
}

// DefaultRuntimeOptions returns MCT runtime options scaled to the
// simulator.
func DefaultRuntimeOptions() RuntimeOptions { return core.DefaultOptions() }

// NewMachine builds a simulated system running the named benchmark under
// cfg. Options: WithSimOptions (default DefaultSimOptions), WithObserver
// (the cache, nvm and, with the DRAM tier, dram metric families, derived
// from each tier's Stats, publish to the registry at window boundaries).
func NewMachine(ctx context.Context, benchmark string, cfg Config, opts ...Option) (*Machine, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := applyOpts(opts)
	spec, err := trace.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	m, err := sim.NewMachine(spec, cfg, simOptions(c))
	if err != nil {
		return nil, err
	}
	if c.reg != nil {
		m.AttachObserver(c.reg)
	}
	return m, nil
}

// NewMixMachine builds the 4-core system running a Table 11 mix. Options:
// WithSimOptions overrides the per-core simulator options inside the
// default multi-core setup; WithObserver attaches a registry (shared LLC
// and controller, one cache/nvm family).
func NewMixMachine(ctx context.Context, mix string, cfg Config, opts ...Option) (*MultiMachine, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := applyOpts(opts)
	specs, err := trace.MixByName(mix)
	if err != nil {
		return nil, err
	}
	mo := sim.DefaultMultiOptions()
	if c.sim != nil {
		mo.Options = *c.sim
	}
	if c.tiers != nil {
		mo.Options.Tiers = *c.tiers
	}
	mm, err := sim.NewMultiMachine(specs, cfg, mo)
	if err != nil {
		return nil, err
	}
	if c.reg != nil {
		mm.AttachObserver(c.reg)
	}
	return mm, nil
}

// SaveCheckpoint writes a machine's complete state (trace position, PRNG
// stream, LLC contents, controller queues and wear, window bookkeeping) to
// path as a versioned checkpoint. The write is atomic: a crash never leaves
// a torn file.
func SaveCheckpoint(path string, m *Machine) error { return sim.SaveCheckpoint(path, m) }

// LoadCheckpoint rebuilds a machine from a checkpoint written by
// SaveCheckpoint; the machine continues the identical simulation. Loading
// rejects files that are not checkpoints or were written by an incompatible
// version.
func LoadCheckpoint(path string) (*Machine, error) { return sim.LoadCheckpoint(path) }

// CloneMachine returns an independent deep copy of a machine: both continue
// the identical simulation, and advancing one never perturbs the other.
func CloneMachine(m *Machine) *Machine { return m.Clone() }

// runtimeOptions resolves the effective core options of one facade call:
// explicit options (or defaults) with the shared observer surface merged
// in (WithObserver feeds the core metric family, WithTraceSink the
// decision-trace events).
func runtimeOptions(c callOpts) RuntimeOptions {
	opt := core.DefaultOptions()
	if c.runtime != nil {
		opt = *c.runtime
	}
	if c.reg != nil {
		opt.Obs = c.reg
	}
	if c.sink != nil {
		opt.Events = c.sink
	}
	return opt
}

// NewRuntime attaches an MCT runtime to a machine. Options:
// WithRuntimeOptions (default DefaultRuntimeOptions), WithObserver (the
// core metric family publishes to the registry; if the machine has no
// observer yet, the registry is attached to it too, so one registry covers
// both layers), WithTraceSink (decision-trace events).
func NewRuntime(ctx context.Context, m *Machine, obj Objective, opts ...Option) (*Runtime, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := applyOpts(opts)
	if c.reg != nil && m.Observer() == nil {
		m.AttachObserver(c.reg)
	}
	return core.New(m, obj, runtimeOptions(c))
}

// NewMultiRuntime attaches an MCT runtime to a multi-core machine. It
// accepts the same options as NewRuntime.
func NewMultiRuntime(ctx context.Context, m *MultiMachine, obj Objective, opts ...Option) (*Runtime, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := applyOpts(opts)
	if c.reg != nil && m.Observer() == nil {
		m.AttachObserver(c.reg)
	}
	return core.New(core.MultiSystem{MM: m}, obj, runtimeOptions(c))
}

// Evaluate measures one configuration on a benchmark trace of nAccesses
// LLC accesses. The LLC is warmed before measurement (a cold cache
// produces no writebacks and meaningless lifetimes); the trace is
// deterministic, so evaluations of different configurations are directly
// comparable. Options: WithSimOptions, WithTiers.
func Evaluate(ctx context.Context, benchmark string, nAccesses int, cfg Config, opts ...Option) (Metrics, error) {
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	c := applyOpts(opts)
	p, err := sim.Prepare(benchmark, 0, nAccesses, simOptions(c))
	if err != nil {
		return Metrics{}, err
	}
	return p.Evaluate(cfg)
}

// EvaluateMany measures several configurations on the identical warmed
// workload (one warmup shared across evaluations — the cheap way to
// sweep). Configurations are evaluated concurrently (WithWorkers bounds
// the pool, default GOMAXPROCS); results are returned in input order and
// are identical to a serial evaluation. Options: WithSimOptions,
// WithTiers, WithWorkers, WithObserver (engine metric family).
func EvaluateMany(ctx context.Context, benchmark string, nAccesses int, cfgs []Config, opts ...Option) ([]Metrics, error) {
	c := applyOpts(opts)
	p, err := sim.Prepare(benchmark, 0, nAccesses, simOptions(c))
	if err != nil {
		return nil, err
	}
	return p.EvaluateAll(ctx, cfgs, engine.Options{Workers: c.workers, Obs: c.reg})
}

// Experiment types.
type (
	// ExperimentOptions scales the experiment drivers.
	ExperimentOptions = experiments.Options
	// ExperimentReport is a rendered experiment artifact.
	ExperimentReport = experiments.Report
	// ExperimentRunParams tunes per-experiment knobs.
	ExperimentRunParams = experiments.RunParams
)

// TextProgress returns a sink that renders trace events as plain text
// lines on w — the same lines the drivers printed before events existed.
// Pass it via WithTraceSink.
func TextProgress(w io.Writer) TraceSink { return obs.TextSink(w) }

// Experiments lists the reproducible table/figure identifiers.
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one paper table/figure and returns the
// structured report. Options: WithExperimentOptions (default
// DefaultExperimentOptions), WithRunParams, WithWorkers, WithTraceSink
// (progress events), WithObserver (engine metric family + sweep counters),
// WithOutput (render the text report to a writer as well). Each call
// computes its sweeps afresh unless the experiment options carry a Sweeps
// cache. Cancelling ctx aborts promptly with ctx.Err(); reports are
// byte-identical at any worker count.
func RunExperiment(ctx context.Context, id string, opts ...Option) (*ExperimentReport, error) {
	c := applyOpts(opts)
	opt := experiments.DefaultOptions()
	if c.exp != nil {
		opt = *c.exp
	}
	if c.tiers != nil {
		opt.Sim.Tiers = *c.tiers
	}
	rp := experiments.DefaultRunParams()
	if c.rp != nil {
		rp = *c.rp
	}
	if c.workersSet {
		opt.Workers = c.workers
	}
	if c.sink != nil {
		opt.Events = c.sink
	}
	if c.reg != nil {
		opt.Obs = c.reg
	}
	rep, err := experiments.Run(ctx, id, opt, rp)
	if err != nil {
		return nil, err
	}
	if c.out != nil {
		rep.Fprint(c.out)
	}
	return rep, nil
}

// DefaultExperimentOptions returns full-fidelity experiment settings.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// QuickExperimentOptions returns reduced-fidelity settings (strided space,
// short traces) for fast iteration and tests.
func QuickExperimentOptions() ExperimentOptions { return experiments.QuickOptions() }

// DefaultExperimentRunParams returns the standard experiment scales.
func DefaultExperimentRunParams() ExperimentRunParams { return experiments.DefaultRunParams() }

// QuickExperimentRunParams returns the reduced scales that go with
// QuickExperimentOptions.
func QuickExperimentRunParams() ExperimentRunParams { return experiments.QuickRunParams() }
