// Package sim wires the substrates into a full system: a synthetic workload
// trace feeds the last-level cache; misses, writebacks and eager mellow
// writebacks flow into the NVM controller; a simple out-of-order core model
// converts memory latencies into stall cycles. Each run yields the three
// objectives MCT optimizes — IPC, lifetime (years) and system energy (J) —
// matching the tradeoff space of §4.1.2.
package sim

import (
	"fmt"

	"mct/internal/cache"
	"mct/internal/config"
	"mct/internal/dram"
	"mct/internal/energy"
	"mct/internal/hierarchy"
	"mct/internal/nvm"
	"mct/internal/rng"
	"mct/internal/trace"
)

// Options configures a simulated machine.
type Options struct {
	Params nvm.Params
	Energy energy.Model

	// LLC geometry (Table 8: 2 MB, 16-way for single core).
	CacheBytes int
	CacheWays  int

	// Core model. The core commits at 1/BaseCPI IPC when unstalled
	// (8-issue OoO), pays LLCHitCycles per L3 hit, and exposes a fraction
	// of each memory latency as stall: ReadStallFactor for load misses,
	// StoreStallFactor for store misses (stores retire under the miss;
	// only a fraction of the fill latency is exposed), and full stalls for
	// write-queue backpressure.
	BaseCPI          float64
	LLCHitCycles     float64
	ReadStallFactor  float64
	StoreStallFactor float64

	// CPUCyclesPerMemCycle couples the 2 GHz core to the 400 MHz
	// controller.
	CPUCyclesPerMemCycle float64

	// EagerScanSets bounds the per-access victim scan for eager mellow
	// writes.
	EagerScanSets int

	// Seed drives the workload generator.
	Seed int64

	// Tiers selects the memory-hierarchy composition: the stock machine is
	// LLC→NVM; Tiers.DRAMCache interposes the DRAM cache tier.
	Tiers config.TierConfig
	// DRAM parameterizes the DRAM cache tier (geometry, latency, hot-page
	// policy); ignored unless Tiers.DRAMCache. A zero value falls back to
	// dram.DefaultParams, and Tiers.DRAMPromoteThreshold, when positive,
	// overrides the promotion threshold.
	DRAM dram.Params
}

// DefaultOptions returns the Table 8/9 system.
func DefaultOptions() Options {
	return Options{
		Params:               nvm.DefaultParams(),
		Energy:               energy.Default(),
		CacheBytes:           2 << 20,
		CacheWays:            16,
		BaseCPI:              0.5,
		LLCHitCycles:         10,
		ReadStallFactor:      0.7,
		StoreStallFactor:     0.3,
		CPUCyclesPerMemCycle: 5,
		EagerScanSets:        32,
		Seed:                 1,
		DRAM:                 dram.DefaultParams(),
	}
}

// Validate checks option sanity.
func (o Options) Validate() error {
	if err := o.Params.Validate(); err != nil {
		return err
	}
	if err := o.Energy.Validate(); err != nil {
		return err
	}
	if err := cache.ValidateGeometry(o.CacheBytes, o.CacheWays); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if o.BaseCPI <= 0 || o.CPUCyclesPerMemCycle <= 0 {
		return fmt.Errorf("sim: invalid core model (CPI %g, ratio %g)", o.BaseCPI, o.CPUCyclesPerMemCycle)
	}
	if o.ReadStallFactor < 0 || o.ReadStallFactor > 1 || o.StoreStallFactor < 0 || o.StoreStallFactor > 1 {
		return fmt.Errorf("sim: stall factors must be in [0,1]")
	}
	if err := o.Tiers.Validate(); err != nil {
		return err
	}
	if o.Tiers.DRAMCache {
		if err := o.dramParams().Validate(); err != nil {
			return err
		}
	}
	return nil
}

// dramParams resolves the effective DRAM tier parameters: the configured
// geometry (defaulted when zero) with the TierConfig promotion-threshold
// override applied.
func (o Options) dramParams() dram.Params {
	p := o.DRAM
	if p == (dram.Params{}) {
		p = dram.DefaultParams()
	}
	if o.Tiers.DRAMPromoteThreshold > 0 {
		p.PromoteThreshold = o.Tiers.DRAMPromoteThreshold
	}
	return p
}

// Metrics reports the objectives and supporting detail for a run or a
// window of a run.
type Metrics struct {
	Instructions uint64
	CPUCycles    float64
	IPC          float64

	Seconds       float64 // simulated wall time of the window
	LifetimeYears float64 // projected from the window's wear rate

	Energy  energy.Breakdown
	EnergyJ float64

	// Memory traffic in the window.
	MemReads  uint64
	MemWrites uint64 // demand + eager write issues

	// Technique activity in the window.
	EagerWrites     uint64
	CancelledWrites uint64
	ForcedWrites    uint64
	SlowWrites      uint64
	FastWrites      uint64
	QueueFullStalls uint64

	LLCHitRate float64
	// RowHitRate is the open-page hit rate of demand reads at the NVM.
	RowHitRate float64

	// DRAM tier activity in the window; all zero on NVM-only machines.
	// The raw counters (not just the rate) ride along so Accum can
	// re-aggregate windows exactly, including the tier's energy inputs.
	DRAMHits          uint64
	DRAMMisses        uint64
	DRAMWriteHits     uint64
	DRAMEagerAbsorbed uint64
	DRAMPromotions    uint64
	DRAMWritebacks    uint64
	// DRAMHitRate is the tier's demand-fill hit ratio for the window — the
	// learned hierarchy tradeoff dimension.
	DRAMHitRate float64

	// WearByBankDelta is the per-bank wear accrued in the window
	// (line-lifetimes); it allows windows of the same configuration to be
	// aggregated exactly (see Accum).
	WearByBankDelta []float64

	// Energy breakdown components needed to re-aggregate windows.
	WritesByRatio map[float64]uint64
}

// Vector returns [IPC, lifetime, energy] — the tradeoff-space encoding of
// §4.1.2.
func (m Metrics) Vector() [3]float64 { return [3]float64{m.IPC, m.LifetimeYears, m.EnergyJ} }

// Machine is a persistent simulated system executing one workload. It
// supports online reconfiguration (SetConfig) and windowed execution, which
// is what the MCT runtime drives during sampling and testing periods.
type Machine struct {
	opt Options
	gen *trace.Generator
	llc *cache.Cache
	// dram is the optional DRAM cache tier (opt.Tiers.DRAMCache); nil on
	// the stock NVM-only hierarchy.
	dram *dram.Cache
	ctrl *nvm.Controller
	// mem is the topmost memory-side tier the LLC's misses flow into: the
	// DRAM tier when present, otherwise the controller. The step loop
	// drives the hierarchy through this seam only.
	mem hierarchy.Mem

	cpuCycles float64 // CPU cycles elapsed
	insts     uint64

	// window bookkeeping
	winStartCycles float64
	winStartInsts  uint64
	winStartStats  nvm.Stats
	winStartCache  cache.Stats
	winStartDRAM   dram.Stats

	// obsv is the optional observer (AttachObserver); nil means no
	// instrumentation and zero overhead.
	obsv *machineObs

	// batch is the machine's reusable scratch buffer for streaming runs:
	// allocated once on first use, refilled in place every iteration, never
	// shared (Clone drops it so clones allocate their own — a shared backing
	// array would race under concurrent evaluation). It is scratch, not
	// state: absent from MachineState, and its contents are meaningless
	// between runs.
	batch []trace.Access
}

// StepBatchSize is the batch granularity of the streaming run loops: large
// enough to amortize per-batch overhead into noise, small enough that a
// machine's resident trace memory stays a fixed 64 KiB regardless of run
// length.
const StepBatchSize = 4096

// batchBuf returns the machine's scratch batch buffer, allocating it on
// first use.
func (m *Machine) batchBuf() []trace.Access {
	if m.batch == nil {
		m.batch = make([]trace.Access, StepBatchSize)
	}
	return m.batch
}

// NewMachine builds a machine running spec under cfg.
func NewMachine(spec trace.Spec, cfg config.Config, opt Options) (*Machine, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	llc, err := cache.New(opt.CacheBytes, opt.CacheWays)
	if err != nil {
		return nil, err
	}
	ctrl, err := nvm.New(cfg, opt.Params)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		opt:  opt,
		gen:  trace.NewGenerator(spec, rng.NewRand(opt.Seed)),
		llc:  llc,
		ctrl: ctrl,
		mem:  ctrl,
	}
	if opt.Tiers.DRAMCache {
		d, err := dram.New(opt.dramParams(), ctrl)
		if err != nil {
			return nil, err
		}
		m.dram = d
		m.mem = d
	}
	m.beginWindow()
	return m, nil
}

// Config returns the active configuration.
func (m *Machine) Config() config.Config { return m.ctrl.Config() }

// Options returns the machine's construction options.
func (m *Machine) Options() Options { return m.opt }

// SetConfig reconfigures the NVM controller in place.
func (m *Machine) SetConfig(cfg config.Config) error { return m.ctrl.SetConfig(cfg) }

// Instructions returns total committed instructions.
func (m *Machine) Instructions() uint64 { return m.insts }

// CPUCycles returns total elapsed CPU cycles.
func (m *Machine) CPUCycles() float64 { return m.cpuCycles }

// Controller exposes the NVM controller (diagnostics and tests).
func (m *Machine) Controller() *nvm.Controller { return m.ctrl }

// DRAM exposes the DRAM cache tier, nil on NVM-only machines
// (diagnostics and tests).
func (m *Machine) DRAM() *dram.Cache { return m.dram }

// Tiers returns the hierarchy's ordered tier pipeline, front (CPU side)
// first.
func (m *Machine) Tiers() []hierarchy.Tier {
	ts := make([]hierarchy.Tier, 0, 3)
	ts = append(ts, m.llc)
	if m.dram != nil {
		ts = append(ts, m.dram)
	}
	return append(ts, m.ctrl)
}

// SetPromoteThreshold retunes the DRAM tier's hot-page promotion
// threshold online; errors on NVM-only machines.
func (m *Machine) SetPromoteThreshold(n int) error {
	if m.dram == nil {
		return fmt.Errorf("sim: machine has no DRAM tier")
	}
	return m.dram.SetPromoteThreshold(n)
}

// dramStats returns the DRAM tier's counters, zero on NVM-only machines.
func (m *Machine) dramStats() dram.Stats {
	if m.dram == nil {
		return dram.Stats{}
	}
	return m.dram.Stats()
}

func (m *Machine) beginWindow() {
	m.winStartCycles = m.cpuCycles
	m.winStartInsts = m.insts
	m.winStartStats = m.ctrl.Stats()
	m.winStartCache = m.llc.Stats()
	m.winStartDRAM = m.dramStats()
}

func (m *Machine) memNow() uint64 {
	return uint64(m.cpuCycles / m.opt.CPUCyclesPerMemCycle)
}

// step executes one trace access. It is the simulator's inner loop: the
// hotpath directive below makes every function it reaches subject to the
// allochot allocation audit.
//
//mctlint:hotpath
func (m *Machine) step(a trace.Access) {
	o := &m.opt
	m.cpuCycles += float64(a.InstGap) * o.BaseCPI
	m.insts += uint64(a.InstGap)

	res := m.llc.Access(a.Addr, a.Write)
	if res.Hit {
		m.cpuCycles += o.LLCHitCycles
	} else {
		now := m.memNow()
		if res.Writeback {
			accepted := m.mem.Write(res.WritebackAddr, now)
			if accepted > now {
				// Write-queue backpressure fully stalls the core.
				m.cpuCycles += float64(accepted-now) * o.CPUCyclesPerMemCycle
				now = accepted
			}
		}
		done := m.mem.Read(res.FillAddr, now)
		latCPU := float64(done-now) * o.CPUCyclesPerMemCycle
		if a.Write {
			m.cpuCycles += latCPU * o.StoreStallFactor
		} else {
			m.cpuCycles += latCPU * o.ReadStallFactor
		}
	}

	// Eager mellow writes: harvest at most one dirty victim per access
	// when the technique is on and the hierarchy has room (§3.1).
	if eager, threshold := m.ctrl.EagerPolicy(); eager && m.mem.EagerSpace() {
		useless := m.llc.UselessPositions(threshold)
		if useless > 0 {
			if addr, ok := m.llc.NextEagerVictim(useless, o.EagerScanSets); ok {
				m.mem.EagerWrite(addr, m.memNow())
			}
		}
	}
}

// StepBatch executes a batch of trace accesses. It is the batched inner
// loop of streaming simulation — together with trace.Source.Fill it forms
// the steady-state hot path, which must stay allocation-free.
//
//mctlint:hotpath
func (m *Machine) StepBatch(batch []trace.Access) {
	for i := range batch {
		m.step(batch[i])
	}
}

// runOwn streams n accesses from the machine's own generator through the
// step loop, refilling the reusable batch buffer in place. The access
// stream is byte-identical to n individual gen.Next/step pairs (the Fill
// batch-size-invariance contract).
func (m *Machine) runOwn(n int) {
	buf := m.batchBuf()
	for n > 0 {
		k := len(buf)
		if k > n {
			k = n
		}
		m.gen.Fill(buf[:k])
		m.StepBatch(buf[:k])
		n -= k
	}
}

// runSource streams src to exhaustion through the step loop via the
// reusable batch buffer.
func (m *Machine) runSource(src trace.Source) {
	buf := m.batchBuf()
	for {
		k := src.Fill(buf)
		if k == 0 {
			return
		}
		m.StepBatch(buf[:k])
	}
}

// RunAccesses executes n trace accesses and returns the metrics of that
// window.
func (m *Machine) RunAccesses(n int) Metrics {
	m.beginWindow()
	m.runOwn(n)
	return m.windowMetrics()
}

// RunSource streams src to exhaustion through the machine — in reusable
// batches, so memory stays O(StepBatchSize) however long the stream — and
// returns the metrics of that window.
func (m *Machine) RunSource(src trace.Source) Metrics {
	m.beginWindow()
	m.runSource(src)
	return m.windowMetrics()
}

// RunInstructions executes trace accesses until at least n instructions
// have committed in this window, returning the window metrics. It steps
// per-access rather than batched: the stop condition depends on each
// access's instruction gap, and prefetching a batch would advance the
// generator past the window boundary, perturbing where the next window
// starts.
func (m *Machine) RunInstructions(n uint64) Metrics {
	m.beginWindow()
	m.StepInstructions(n)
	return m.windowMetrics()
}

// StepInstructions executes trace accesses until at least n more
// instructions have committed, without touching window accounting. Because
// the stop condition is a target instruction count and stepping is
// per-access, splitting a run into chunks produces the identical access
// stream as one straight run: StepInstructions(a) then StepInstructions(b)
// steps exactly the accesses of StepInstructions(a+b). Combined with
// checkpoints — window-start markers ride MachineState — this is what lets
// a resumed run finish byte-identical to an uninterrupted one.
func (m *Machine) StepInstructions(n uint64) {
	target := m.insts + n
	for m.insts < target {
		m.step(m.gen.Next())
	}
}

// WindowMetrics returns the metrics of the current measurement window (since
// the last beginWindow — e.g. the one opened by Warmup) without ending it.
func (m *Machine) WindowMetrics() Metrics { return m.windowMetrics() }

// WindowInstructions returns the instructions committed in the current
// measurement window. A resumed run uses it to compute how many
// instructions of its target remain.
func (m *Machine) WindowInstructions() uint64 { return m.insts - m.winStartInsts }

// windowMetrics computes metrics for the current window (since the last
// beginWindow) without ending it.
func (m *Machine) windowMetrics() Metrics {
	st := m.ctrl.Stats()
	cs := m.llc.Stats()
	ds := m.dramStats()
	if m.obsv != nil {
		m.obsv.publish(cs, st, ds, true)
	}
	return m.metricsBetween(m.winStartCycles, m.winStartInsts, m.winStartStats, m.winStartCache, m.winStartDRAM, st, cs, ds)
}

func (m *Machine) metricsBetween(c0 float64, i0 uint64, s0 nvm.Stats, llc0 cache.Stats, d0 dram.Stats, s1 nvm.Stats, llc1 cache.Stats, d1 dram.Stats) Metrics {
	o := &m.opt
	dCycles := m.cpuCycles - c0
	dInsts := m.insts - i0
	seconds := dCycles / o.CPUCyclesPerMemCycle / o.Params.MemCyclesPerSec

	var mt Metrics
	mt.Instructions = dInsts
	mt.CPUCycles = dCycles
	if dCycles > 0 {
		mt.IPC = float64(dInsts) / dCycles
	}
	mt.Seconds = seconds

	// Lifetime from the window's per-bank wear deltas.
	wearDelta := make([]float64, len(s1.WearByBank))
	var maxWear float64
	for b, w1 := range s1.WearByBank {
		d := w1 - s0.WearByBank[b]
		wearDelta[b] = d
		if d > maxWear {
			maxWear = d
		}
	}
	mt.WearByBankDelta = wearDelta
	budget := float64(o.Params.LinesPerBank) * o.Params.WearLevelEff
	if maxWear <= 0 || seconds <= 0 {
		mt.LifetimeYears = 1000
	} else {
		mt.LifetimeYears = seconds * budget / maxWear / nvm.SecondsPerYear
		if mt.LifetimeYears > 1000 {
			mt.LifetimeYears = 1000
		}
	}

	dst := diffStats(s0, s1)
	if rh, rm := dst.RowHits, dst.RowMisses; rh+rm > 0 {
		mt.RowHitRate = float64(rh) / float64(rh+rm)
	}
	mt.MemReads = dst.Reads
	mt.MemWrites = dst.DemandWrites + dst.EagerWrites
	mt.EagerWrites = dst.EagerWrites
	mt.CancelledWrites = dst.CancelledWrites
	mt.ForcedWrites = dst.ForcedWrites
	mt.SlowWrites = dst.SlowWrites
	mt.FastWrites = dst.FastWrites
	mt.QueueFullStalls = dst.QueueFullStalls

	if m.dram != nil {
		dd := diffDRAM(d0, d1)
		mt.DRAMHits = dd.Hits
		mt.DRAMMisses = dd.Misses
		mt.DRAMWriteHits = dd.WriteHits
		mt.DRAMEagerAbsorbed = dd.EagerAbsorbed
		mt.DRAMPromotions = dd.Promotions
		mt.DRAMWritebacks = dd.Writebacks
		mt.DRAMHitRate = dd.HitRate()
		mt.Energy = o.Energy.ComputeTiered(dInsts, seconds, dst, dramReads(dd), dramWrites(dd))
	} else {
		mt.Energy = o.Energy.Compute(dInsts, seconds, dst)
	}
	mt.EnergyJ = mt.Energy.Total()
	mt.WritesByRatio = dst.WritesByRatio

	hits := llc1.Hits - llc0.Hits
	total := hits + (llc1.Misses - llc0.Misses)
	if total > 0 {
		mt.LLCHitRate = float64(hits) / float64(total)
	}
	return mt
}

// diffDRAM returns s1-s0 (all fields are monotone counters).
func diffDRAM(s0, s1 dram.Stats) dram.Stats {
	return dram.Stats{
		Hits:          s1.Hits - s0.Hits,
		Misses:        s1.Misses - s0.Misses,
		WriteHits:     s1.WriteHits - s0.WriteHits,
		WriteMisses:   s1.WriteMisses - s0.WriteMisses,
		EagerAbsorbed: s1.EagerAbsorbed - s0.EagerAbsorbed,
		Promotions:    s1.Promotions - s0.Promotions,
		Writebacks:    s1.Writebacks - s0.Writebacks,
		DrainFlushes:  s1.DrainFlushes - s0.DrainFlushes,
	}
}

// dramReads/dramWrites map tier counters to DRAM array accesses for the
// energy model: reads are tier-serviced fills; writes are absorbed LLC
// writebacks (demand + eager) plus line installs.
func dramReads(d dram.Stats) uint64 { return d.Hits }
func dramWrites(d dram.Stats) uint64 {
	return d.WriteHits + d.EagerAbsorbed + d.Promotions
}

// diffStats returns s1-s0 for the counters used by metrics/energy.
func diffStats(s0, s1 nvm.Stats) nvm.Stats {
	d := nvm.Stats{
		Reads:           s1.Reads - s0.Reads,
		RowHits:         s1.RowHits - s0.RowHits,
		RowMisses:       s1.RowMisses - s0.RowMisses,
		ReadLatencySum:  s1.ReadLatencySum - s0.ReadLatencySum,
		DemandWrites:    s1.DemandWrites - s0.DemandWrites,
		EagerWrites:     s1.EagerWrites - s0.EagerWrites,
		FastWrites:      s1.FastWrites - s0.FastWrites,
		SlowWrites:      s1.SlowWrites - s0.SlowWrites,
		ForcedWrites:    s1.ForcedWrites - s0.ForcedWrites,
		CancelledWrites: s1.CancelledWrites - s0.CancelledWrites,
		QueueFullStalls: s1.QueueFullStalls - s0.QueueFullStalls,
		WritesByRatio:   make(map[float64]uint64),
	}
	for r, n1 := range s1.WritesByRatio {
		if n0 := s0.WritesByRatio[r]; n1 > n0 {
			d.WritesByRatio[r] = n1 - n0
		}
	}
	return d
}

// finishRun drains the memory hierarchy — dirty DRAM-tier lines flush to
// NVM, then queued writes retire — so their wear and energy are charged
// to the run, advancing the CPU clock if the drain outlasts it.
func (m *Machine) finishRun() {
	final := m.mem.Drain(m.memNow())
	if f := float64(final) * m.opt.CPUCyclesPerMemCycle; f > m.cpuCycles {
		m.cpuCycles = f
	}
}

// settleHierarchy flushes the DRAM tier's warmup-accrued dirty set (and
// the controller queue behind it) so measurement windows drain only their
// own writes — without this, the first window after warmup would be
// charged the whole warmup's dirty-set writeback storm. NVM-only machines
// are untouched: their only buffered state is the bounded write queue,
// whose end-of-window drain is part of the measured cost.
func (m *Machine) settleHierarchy() {
	if m.dram == nil {
		return
	}
	m.finishRun()
}

// settleHierarchy is the multi-core analog: after the flush, every core's
// clock catches up to the drain point.
func (m *MultiMachine) settleHierarchy() {
	if m.dram == nil {
		return
	}
	var maxCycles float64
	for _, c := range m.cpuCycles {
		if c > maxCycles {
			maxCycles = c
		}
	}
	final := m.mem.Drain(uint64(maxCycles / m.opt.CPUCyclesPerMemCycle))
	if f := float64(final) * m.opt.CPUCyclesPerMemCycle; f > maxCycles {
		maxCycles = f
	}
	for i := range m.cpuCycles {
		if m.cpuCycles[i] < maxCycles {
			m.cpuCycles[i] = maxCycles
		}
	}
}
