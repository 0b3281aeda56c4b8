package sim

import (
	"fmt"
	"sync"

	"mct/internal/config"
	"mct/internal/trace"
)

// DefaultWarmupAccesses fills a 2 MB LLC (32768 lines) with headroom before
// measurement starts; without warmup a short trace produces no evictions,
// hence no memory writes and meaningless lifetimes.
const DefaultWarmupAccesses = 60_000

// warmupConfig is the fixed configuration the shared warmup runs under.
// It must be one config for all evaluations (the warm machine is built
// once), and the all-fast default keeps warmup neutral: no techniques are
// active, so no configuration under test gets a head start.
func warmupConfig() config.Config { return config.Default() }

// windowCap bounds the measurement prefix a Prepared keeps: 1<<15
// accesses, 512 KiB at 16 B per access, which holds every sweep window in
// the tree (8k quick, 30k default). Longer windows replay the prefix and
// stream the rest, so a Prepared never pins memory proportional to its
// measurement length.
const windowCap = 1 << 15

// Prepared is a benchmark workload prepared for repeated configuration
// evaluations: one machine (trace generator, LLC and NVM controller) has
// been warmed once under a fixed warmup configuration, and every evaluation
// clones the whole warm machine, switches it to the configuration under
// test, and runs only the identical measurement window. This is what
// makes brute-force sweeps of thousands of configurations affordable and
// fair: the warmup — the one cost per-configuration parallelism cannot
// remove — is paid once per benchmark instead of once per configuration.
//
// The measurement trace is generated once, too. The first Evaluate
// materializes the window's first min(measure, windowCap) accesses from a
// clone of the warm generator (which sits exactly at the measurement cut)
// and keeps that generator, now at the prefix end, for the remainder.
// Every evaluation replays the shared prefix and, for windows longer than
// the cap, streams the rest from its own clone of the kept generator. The
// stream is identical to regenerating the whole window (the trace is a pure
// function of generator state), memory stays O(windowCap + StepBatchSize)
// however long the window, and the work stays out of Prepare, whose callers
// may never evaluate.
//
// Concurrency contract: a Prepared is immutable apart from that one-time
// materialization, which runs under a sync.Once. Evaluate otherwise only
// reads the warm machine and the shared window (via Clone, which never
// writes to its receiver and shares nothing mutable), and builds all
// mutable simulation state per call. Any number of goroutines may
// therefore call Evaluate on one Prepared concurrently, and each
// evaluation's result depends only on its configuration — never on what
// other evaluations run beside it or in which order.
type Prepared struct {
	Spec trace.Spec
	opt  Options

	warmup   int
	nMeasure int
	warm     *Machine

	once sync.Once
	// prefix holds the first min(nMeasure, windowCap) measured accesses;
	// tail is the generator positioned right after them, nil when the
	// prefix is the whole window. Both are read-only once built.
	prefix []trace.Access
	tail   *trace.Generator
}

// Prepare warms a machine with warmup accesses of the named benchmark
// (under warmupConfig); evaluations then run the next measure accesses from
// the warmed position. warmup ≤ 0 uses DefaultWarmupAccesses.
func Prepare(benchmark string, warmup, measure int, opt Options) (*Prepared, error) {
	if measure <= 0 {
		return nil, fmt.Errorf("sim: non-positive measurement length %d", measure)
	}
	if warmup <= 0 {
		warmup = DefaultWarmupAccesses
	}
	spec, err := trace.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	m, err := NewMachine(spec, warmupConfig(), opt)
	if err != nil {
		return nil, err
	}
	// Warm the whole machine: LLC contents, controller queues/row buffers,
	// and warmup-accrued wear (subtracted out by window accounting). The
	// generator is left exactly at the measurement cut. Hybrid machines
	// settle the DRAM tier's dirty set here so it is charged to warmup,
	// not to every configuration's first measurement window.
	m.runOwn(warmup)
	m.settleHierarchy()
	return &Prepared{
		Spec:     spec,
		opt:      opt,
		warmup:   warmup,
		nMeasure: measure,
		warm:     m,
	}, nil
}

// Checkpoint writes the prepared workload's warm machine to path as a
// standard machine checkpoint (see SaveCheckpoint). A later process can
// rebuild the Prepared with LoadCheckpoint + PreparedFromMachine and skip
// the warmup replay entirely.
func (p *Prepared) Checkpoint(path string) error {
	return SaveCheckpoint(path, p.warm)
}

// PreparedFromMachine wraps an already-warmed machine — typically one
// restored from a checkpoint written by Prepared.Checkpoint — as a Prepared
// measuring measure accesses per evaluation. The machine's generator must
// sit exactly at the measurement cut (where Prepare leaves it); warmup ≤ 0
// records DefaultWarmupAccesses, which only matters to EvaluateCold's
// replay. The machine is adopted: the caller must not touch it afterwards.
func PreparedFromMachine(m *Machine, warmup, measure int) (*Prepared, error) {
	if measure <= 0 {
		return nil, fmt.Errorf("sim: non-positive measurement length %d", measure)
	}
	if warmup <= 0 {
		warmup = DefaultWarmupAccesses
	}
	return &Prepared{
		Spec:     m.gen.Spec(),
		opt:      m.opt,
		warmup:   warmup,
		nMeasure: measure,
		warm:     m,
	}, nil
}

// Trace materializes the whole measurement access stream into a fresh
// slice, regenerated from a clone of the warm generator, so callers own
// the result outright: mutating it cannot perturb evaluations or the
// shared window.
func (p *Prepared) Trace() []trace.Access {
	return trace.Collect(p.warm.gen.Clone(), p.nMeasure)
}

// materialize builds the shared window (see Prepared); it runs once.
func (p *Prepared) materialize() {
	g := p.warm.gen.Clone()
	p.prefix = trace.Collect(g, min(p.nMeasure, windowCap))
	if p.nMeasure > len(p.prefix) {
		p.tail = g
	}
}

// Evaluate measures one configuration on the prepared workload by cloning
// the warm machine and replaying the shared measurement window. It is safe
// for concurrent use (see the Prepared concurrency contract) and returns
// the same Metrics for the same configuration no matter how many
// evaluations run in parallel.
func (p *Prepared) Evaluate(cfg config.Config) (Metrics, error) {
	p.once.Do(p.materialize)
	m := p.warm.Clone()
	if err := m.SetConfig(cfg); err != nil {
		return Metrics{}, err
	}
	m.beginWindow()
	m.StepBatch(p.prefix)
	if p.tail != nil {
		m.gen = p.tail.Clone()
		m.runOwn(p.nMeasure - len(p.prefix))
	}
	m.finishRun()
	return m.windowMetrics(), nil
}

// EvaluateCold measures one configuration the pre-clone way: build a fresh
// machine, replay the entire warmup, and stream the measurement window from
// the machine's own generator, never reading the shared window. It must
// produce byte-identical Metrics to Evaluate — that equivalence is the
// correctness proof of the snapshot contract and of the window replay
// (enforced by tests) — and exists as the reference path for those tests.
func (p *Prepared) EvaluateCold(cfg config.Config) (Metrics, error) {
	m, err := NewMachine(p.Spec, warmupConfig(), p.opt)
	if err != nil {
		return Metrics{}, err
	}
	m.runOwn(p.warmup)
	m.settleHierarchy()
	if err := m.SetConfig(cfg); err != nil {
		return Metrics{}, err
	}
	m.beginWindow()
	m.runOwn(p.nMeasure)
	m.finishRun()
	return m.windowMetrics(), nil
}

// Warmup advances the machine by n trace accesses and then resets window
// accounting — run it once before measuring so the LLC and controller reach
// steady state. It returns the instructions executed.
func (m *Machine) Warmup(n int) uint64 {
	before := m.insts
	m.runOwn(n)
	m.settleHierarchy()
	m.beginWindow()
	return m.insts - before
}

// Warmup advances every core round-robin for a total of n accesses and
// resets window accounting.
func (m *MultiMachine) Warmup(n int) uint64 {
	var before uint64
	for _, v := range m.insts {
		before += v
	}
	for i := 0; i < n; i++ {
		m.stepCore()
	}
	m.settleHierarchy()
	m.beginWindow()
	var after uint64
	for _, v := range m.insts {
		after += v
	}
	return after - before
}
