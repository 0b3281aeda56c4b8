package sim

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"mct/internal/config"
	"mct/internal/engine"
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
// forks the whole warm machine into lanes for the configurations under
// test (see EvaluateBatch) and runs only the identical measurement window. This
// is what makes brute-force sweeps of thousands of configurations
// affordable and fair: the warmup — the one cost per-configuration
// parallelism cannot remove — is paid once per benchmark instead of once
// per configuration.
//
// The measurement trace is generated once, too. The first evaluation
// materializes the window's first min(measure, windowCap) accesses from a
// clone of the warm generator (which sits exactly at the measurement cut)
// and keeps that generator, now at the prefix end, for the remainder.
// Every batch replays the shared prefix and, for windows longer than the
// cap, streams the rest from its own clone of the kept generator. The
// stream is identical to regenerating the whole window (the trace is a pure
// function of generator state), memory stays O(windowCap + StepBatchSize)
// however long the window, and the work stays out of Prepare, whose callers
// may never evaluate.
//
// Concurrency contract: a Prepared is immutable apart from that one-time
// materialization, which runs under a sync.Once. An evaluation otherwise
// only reads the warm machine and the shared window (via fork, which never
// writes to its receiver and shares nothing mutable, and via the splits of
// shared lanes, which clone the warm tiers), and builds all mutable
// simulation state per call. Any number of goroutines may
// therefore call Evaluate, EvaluateBatch and EvaluateAll on one Prepared
// concurrently, and each configuration's result depends only on that
// configuration — never on what else is in its batch, what runs beside it
// or in which order.
type Prepared struct {
	Spec trace.Spec
	opt  Options

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
// sit exactly at the measurement cut (where Prepare leaves it). The machine
// must be single-core, and is adopted: the caller must not touch it
// afterwards.
func PreparedFromMachine(m *Machine, measure int) (*Prepared, error) {
	if len(m.cores) > 1 {
		return nil, fmt.Errorf("sim: prepared workloads are single-core; machine has %d cores", len(m.cores))
	}
	if measure <= 0 {
		return nil, fmt.Errorf("sim: non-positive measurement length %d", measure)
	}
	return &Prepared{
		Spec:     m.gens[0].Spec(),
		opt:      m.opt,
		nMeasure: measure,
		warm:     m,
	}, nil
}

// materialize builds the shared window (see Prepared); it runs once.
func (p *Prepared) materialize() {
	g := p.warm.gens[0].Clone()
	p.prefix = trace.Collect(g, min(p.nMeasure, windowCap))
	if p.nMeasure > len(p.prefix) {
		p.tail = g
	}
}

// Evaluate measures one configuration on the prepared workload: it is
// EvaluateBatch of that configuration alone. It is safe for concurrent use
// (see the Prepared concurrency contract) and returns the same Metrics for
// the same configuration no matter how many evaluations run in parallel.
func (p *Prepared) Evaluate(cfg config.Config) (Metrics, error) {
	ms, err := p.EvaluateBatch([]config.Config{cfg})
	if err != nil {
		return Metrics{}, err
	}
	return ms[0], nil
}

// EvaluateBatch measures several configurations on the prepared workload in
// one pass over the shared measurement window. It forks the warm machine
// into lanes: the LLC's tags, valid masks, LRU order and hit histogram
// evolve the same way under every configuration of a single-core window,
// so each access probes them once, and every lane settles it on its own
// dirty masks, eager cursor, core clock, DRAM tier and controller. The
// batch starts as one lane standing for every configuration; the
// configurations whose decisions first differ from the lane's own split
// off into a lane of their own at that access (see share.go), so
// configurations that decide alike to the end are simulated once. A
// window longer than the shared prefix streams its tail once for the
// whole batch. Metrics[k] is identical to what Evaluate returns for
// cfgs[k], whatever else is in the batch; the first configuration the
// controller rejects fails the whole batch. Keep batches to MaxBatch
// configurations: the per-lane state of more stops fitting in cache.
func (p *Prepared) EvaluateBatch(cfgs []config.Config) ([]Metrics, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	p.once.Do(p.materialize)
	m, err := p.warm.forkBatch(cfgs)
	if err != nil {
		return nil, err
	}
	m.beginWindow()
	m.StepBatch(p.prefix)
	if p.tail != nil {
		m.gens[0] = p.tail.Clone()
		m.runOwn(p.nMeasure - len(p.prefix))
	}
	m.finishRun()
	out := make([]Metrics, len(cfgs))
	for _, l := range m.lanes {
		for _, id := range l.ids {
			out[id] = m.laneMetrics(l)
		}
		if l.grp != nil {
			l.grp.releaseLog()
		}
	}
	return out, nil
}

// MaxBatch caps the configurations EvaluateAll steps together. Up to 8
// lanes keep one set's dirty masks in one 64-byte line; far more lanes'
// dirty arrays and controllers stop fitting in cache and the per-access
// fan-out slows down. It counts configurations, not the lanes they end up
// in.
const MaxBatch = 8

// batchStarts partitions n configurations into consecutive batches and
// returns each batch's first index, then n. The split is guided: a batch
// takes min(MaxBatch, ⌈remaining/4⌉), so the tail shrinks to single
// configurations that keep every worker busy to the end. It depends on n
// alone — never on the worker count or timing — so batched results and
// engine counters are the same at any worker count.
func batchStarts(n int) []int {
	starts := []int{0}
	for i := 0; i < n; {
		i += min(MaxBatch, (n-i+3)/4)
		starts = append(starts, i)
	}
	return starts
}

// EvaluateAll measures every configuration of cfgs, in EvaluateBatch
// batches fanned out over engine.Map (opt.Workers, opt.Obs: the engine's
// tasks are batches), and returns the results in input order. The batches
// take the configurations in shareOrder, so that those likely to decide
// alike share a batch and then a lane. opt.OnDone, when set, counts
// configurations: as each batch completes it observes the next done = 1,
// 2, …, len(cfgs) in order, serialized.
func (p *Prepared) EvaluateAll(ctx context.Context, cfgs []config.Config, opt engine.Options) ([]Metrics, error) {
	order := shareOrder(cfgs)
	sorted := make([]config.Config, len(cfgs))
	for i, j := range order {
		sorted[i] = cfgs[j]
	}
	cfgs = sorted
	starts := batchStarts(len(cfgs))
	onDone := opt.OnDone
	opt.OnDone = nil
	var mu sync.Mutex
	done := 0
	batches, err := engine.Map(ctx, len(starts)-1, opt, func(ctx context.Context, b int) ([]Metrics, error) {
		ms, err := p.EvaluateBatch(cfgs[starts[b]:starts[b+1]])
		if err == nil && onDone != nil {
			mu.Lock()
			for range ms {
				done++
				onDone(done, len(cfgs))
			}
			mu.Unlock()
		}
		return ms, err
	})
	if err != nil {
		return nil, err
	}
	out := make([]Metrics, len(cfgs))
	i := 0
	for _, ms := range batches {
		for _, mt := range ms {
			out[order[i]] = mt
			i++
		}
	}
	return out, nil
}

// shareOrder returns the permutation of cfgs that EvaluateAll batches
// them in: a stable sort on the parameters that act on every access
// first (wear quota on/off, eager on/off, slow latency, slow cancellation,
// eager threshold), then those that act only on demand writes (bank-aware
// and its threshold, fast latency, fast cancellation). Neighbours then
// tend to take the same decisions on the paths every access goes through,
// and so to share a lane longer. The key follows from the write paths the
// parameters steer, not from any workload.
func shareOrder(cfgs []config.Config) []int {
	order := make([]int, len(cfgs))
	keys := make([]config.Config, len(cfgs))
	for i, cfg := range cfgs {
		order[i], keys[i] = i, cfg.Canonical()
	}
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	slices.SortStableFunc(order, func(i, j int) int {
		x, y := &keys[i], &keys[j]
		return cmp.Or(
			cmp.Compare(b(x.WearQuota), b(y.WearQuota)),
			cmp.Compare(b(x.EagerWritebacks), b(y.EagerWritebacks)),
			cmp.Compare(x.SlowLatency, y.SlowLatency),
			cmp.Compare(b(x.SlowCancellation), b(y.SlowCancellation)),
			cmp.Compare(x.EagerThreshold, y.EagerThreshold),
			cmp.Compare(b(x.BankAware), b(y.BankAware)),
			cmp.Compare(x.BankAwareThreshold, y.BankAwareThreshold),
			cmp.Compare(x.FastLatency, y.FastLatency),
			cmp.Compare(b(x.FastCancellation), b(y.FastCancellation)),
		)
	})
	return order
}

// Warmup advances the machine by n trace accesses (across all cores) and
// then resets window accounting — run it once before measuring so the LLC
// and controller reach steady state. It returns the instructions executed.
func (m *Machine) Warmup(n int) uint64 {
	before := m.Instructions()
	m.runOwn(n)
	m.settleHierarchy()
	m.beginWindow()
	return m.Instructions() - before
}
