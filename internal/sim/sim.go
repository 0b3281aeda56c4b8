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
	"mct/internal/stats"
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
	WritesByRatio nvm.RatioCounts
}

// Vector returns [IPC, lifetime, energy] — the tradeoff-space encoding of
// §4.1.2.
func (m Metrics) Vector() [3]float64 { return [3]float64{m.IPC, m.LifetimeYears, m.EnergyJ} }

// Machine is a persistent simulated system. It supports online
// reconfiguration (SetConfig) and windowed execution, which is what the MCT
// runtime drives during sampling and testing periods. NewMachine builds the
// single-program machine (one core); NewMultiMachine the multi-program one
// (one core per program). Either way the cores share one LLC, optional DRAM
// tier and NVM controller.
//
// Inside Prepared.EvaluateBatch a single-core machine carries several
// lanes: the LLC's shared state steps once per access and every lane
// (clock, dirty masks, DRAM tier, controller) settles it. A lane stands
// for one configuration or, while they all decide alike, for several: its
// members split off into a lane of their own at the first access where one
// of their decisions differs (see share.go). A machine anywhere else has
// the one lane it embeds, which stands for its configuration alone.
type Machine struct {
	opt Options
	// gens holds each core's trace generator, one per program.
	gens []*trace.Generator
	llc  *cache.Cache
	// lane is the machine's own configuration-dependent state, lane 0 of
	// the LLC.
	lane
	// lanes lists every lane step fans an access out to, in LLC lane
	// order: &m.lane first.
	lanes []*lane

	// window bookkeeping of the LLC (the lanes keep their own)
	winStartCache cache.Stats

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

// lane is the state of a machine that depends on its configuration: the
// cores' clocks, the memory tiers behind the LLC, their window bookkeeping,
// and (inside the LLC) the dirty masks, eager cursor and writeback
// counters.
type lane struct {
	// cores holds each core's clock, one entry per program.
	cores []coreState
	// dram is the optional DRAM cache tier (opt.Tiers.DRAMCache); nil on
	// the stock NVM-only hierarchy.
	dram *dram.Cache
	ctrl *nvm.Controller
	// mem is the topmost memory-side tier the LLC's misses flow into: the
	// DRAM tier when present, otherwise the controller. The step loop
	// drives the hierarchy through this seam only.
	mem hierarchy.Mem

	// window bookkeeping of the memory tiers (the cores keep their own)
	winStartStats nvm.Stats
	winStartDRAM  dram.Stats

	// ids lists the batch positions of the configurations the lane stands
	// for, the controller's own first (nil outside EvaluateBatch).
	ids []int
	// grp is set while the lane stands for several configurations; mem is
	// then its call log.
	grp *group
}

// coreState is one core's clock and committed instructions, and both at
// the start of the current measurement window.
type coreState struct {
	cpuCycles      float64 // CPU cycles elapsed
	insts          uint64
	winStartCycles float64
	winStartInsts  uint64
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

// NewMachine builds a single-core machine running spec under cfg.
func NewMachine(spec trace.Spec, cfg config.Config, opt Options) (*Machine, error) {
	return newMachine(cfg, opt, []*trace.Generator{trace.NewGenerator(spec, rng.NewRand(opt.Seed))})
}

// newMachine builds a machine with one core per generator over a fresh
// shared hierarchy.
func newMachine(cfg config.Config, opt Options, gens []*trace.Generator) (*Machine, error) {
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
		gens: gens,
		llc:  llc,
		lane: lane{cores: make([]coreState, len(gens)), ctrl: ctrl, mem: ctrl},
	}
	m.lanes = []*lane{&m.lane}
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

// Cores returns the core count.
func (m *Machine) Cores() int { return len(m.cores) }

// Instructions returns total committed instructions, summed over cores.
func (m *Machine) Instructions() uint64 {
	var n uint64
	for i := range m.cores {
		n += m.cores[i].insts
	}
	return n
}

// CPUCycles returns the elapsed CPU cycles of the most advanced core.
func (m *Machine) CPUCycles() float64 { return m.lane.cpuCycles() }

func (l *lane) cpuCycles() float64 {
	var c float64
	for i := range l.cores {
		if l.cores[i].cpuCycles > c {
			c = l.cores[i].cpuCycles
		}
	}
	return c
}

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

// dramStats returns the DRAM tier's counters, zero on NVM-only machines.
func (l *lane) dramStats() dram.Stats {
	if l.dram == nil {
		return dram.Stats{}
	}
	return l.dram.Stats()
}

func (m *Machine) beginWindow() {
	for _, l := range m.lanes {
		for i := range l.cores {
			c := &l.cores[i]
			c.winStartCycles = c.cpuCycles
			c.winStartInsts = c.insts
		}
		l.winStartStats = l.ctrl.Stats()
		l.winStartDRAM = l.dramStats()
	}
	m.winStartCache = m.llc.Stats()
}

// memCycle converts a CPU clock to the memory controller's clock.
func (m *Machine) memCycle(cpuCycles float64) uint64 {
	return uint64(cpuCycles / m.opt.CPUCyclesPerMemCycle)
}

// step executes one trace access on core ci: the LLC's shared state steps
// once, then every lane settles the access on its own clock, dirty masks
// and memory tiers. A lane with members that decided otherwise splits, and
// the new lane, appended, settles the access in its turn. It is the
// simulator's inner loop, held to zero allocations by
// TestBatchedStepLoopZeroAllocs and TestLaneFanOutZeroAllocs.
func (m *Machine) step(ci int, a trace.Access) {
	o := &m.opt
	gap := float64(a.InstGap) * o.BaseCPI
	m.llc.Probe(a.Addr)
	for k := 0; k < len(m.lanes); k++ {
		l := m.lanes[k]
		if l.grp != nil {
			m.begin(k, l, ci)
		}
		c := &l.cores[ci]
		c.cpuCycles += gap
		c.insts += uint64(a.InstGap)

		res := m.llc.Settle(k, a.Write)
		if res.Hit {
			c.cpuCycles += o.LLCHitCycles
			// Multi-core machines harvest eager victims only after an LLC
			// miss, unlike §3.1. The mix1 golden digests pin this; dropping
			// it is a deliberate re-pin (ROADMAP).
			if len(l.cores) > 1 {
				continue
			}
		} else {
			now := m.memCycle(c.cpuCycles)
			if res.Writeback {
				accepted := l.mem.Write(res.WritebackAddr, now)
				if accepted > now {
					// Write-queue backpressure fully stalls the core.
					c.cpuCycles += float64(accepted-now) * o.CPUCyclesPerMemCycle
					now = accepted
				}
			}
			done := l.mem.Read(res.FillAddr, now)
			latCPU := float64(done-now) * o.CPUCyclesPerMemCycle
			if a.Write {
				c.cpuCycles += latCPU * o.StoreStallFactor
			} else {
				c.cpuCycles += latCPU * o.ReadStallFactor
			}
		}

		// Eager mellow writes: harvest at most one dirty victim per access
		// when the technique is on and the hierarchy has room (§3.1). The
		// threshold is 0, so no position is useless, when it is off.
		if eager, threshold := l.ctrl.EagerPolicy(); (eager || l.grp != nil) && l.mem.EagerSpace() {
			useless := m.llc.UselessPositions(threshold)
			if l.grp != nil {
				l.grp.checkEager(m.llc, useless)
			}
			if useless > 0 {
				if addr, ok := m.llc.LaneEagerVictim(k, useless, o.EagerScanSets); ok {
					l.mem.EagerWrite(addr, m.memCycle(c.cpuCycles))
				}
			}
		}
		if l.grp != nil && l.diverged() != 0 {
			m.split(k, ci)
		}
	}
}

// stepNext steps the least-advanced core (the first on a tie) by one
// access from its own generator. Cores thus advance in near-lockstep, so
// memory contention between programs is captured. Only a one-lane machine
// has several cores.
func (m *Machine) stepNext() {
	ci := 0
	for i := 1; i < len(m.cores); i++ {
		if m.cores[i].cpuCycles < m.cores[ci].cpuCycles {
			ci = i
		}
	}
	m.step(ci, m.gens[ci].Next())
}

// StepBatch executes a batch of trace accesses on core 0, the only core of
// a single-core machine. It is the batched inner loop of streaming
// simulation — together with trace.Generator.Fill it forms the steady-state
// hot path, which must stay allocation-free.
func (m *Machine) StepBatch(batch []trace.Access) {
	for i := range batch {
		m.step(0, batch[i])
	}
}

// runOwn executes n accesses from the cores' own generators. One core
// streams them through the step loop, refilling the reusable batch buffer
// in place; the access stream is byte-identical to n individual
// gen.Next/step pairs (the Fill batch-size-invariance contract). Several
// cores step one access at a time, least advanced first: a prefetched batch
// would advance a generator past accesses its core has not run.
func (m *Machine) runOwn(n int) {
	if len(m.cores) > 1 {
		for ; n > 0; n-- {
			m.stepNext()
		}
		return
	}
	gen := m.gens[0]
	buf := m.batchBuf()
	for n > 0 {
		k := min(len(buf), n)
		gen.Fill(buf[:k])
		m.StepBatch(buf[:k])
		n -= k
	}
}

// RunAccesses executes n trace accesses and returns the metrics of that
// window.
func (m *Machine) RunAccesses(n int) Metrics {
	m.beginWindow()
	m.runOwn(n)
	return m.windowMetrics()
}

// RunInstructions executes trace accesses until at least n instructions
// have committed in this window, returning the window metrics. It steps
// per-access rather than batched: the stop condition depends on each
// access's instruction gap, and prefetching a batch would advance the
// generator past the window boundary, perturbing where the next window
// starts. On a multi-core machine n counts all cores' instructions, so
// each core contributes in proportion to its speed.
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
	target := m.Instructions() + n
	for m.Instructions() < target {
		m.stepNext()
	}
}

// WindowMetrics returns the metrics of the current measurement window (since
// the last beginWindow — e.g. the one opened by Warmup) without ending it.
func (m *Machine) WindowMetrics() Metrics { return m.windowMetrics() }

// WindowInstructions returns the instructions committed in the current
// measurement window. A resumed run uses it to compute how many
// instructions of its target remain.
func (m *Machine) WindowInstructions() uint64 {
	var n uint64
	for i := range m.cores {
		n += m.cores[i].insts - m.cores[i].winStartInsts
	}
	return n
}

// windowMetrics computes lane 0's metrics for the current window (since
// the last beginWindow) without ending it.
func (m *Machine) windowMetrics() Metrics { return m.laneMetrics(&m.lane) }

// laneMetrics computes lane l's metrics for the current window. The
// window's wall clock is the slowest core's cycle delta.
func (m *Machine) laneMetrics(l *lane) Metrics {
	o := &m.opt
	s0, s1 := l.winStartStats, l.ctrl.Stats()
	llc1 := m.llc.Stats()
	d1 := l.dramStats()
	if m.obsv != nil {
		m.obsv.publish(layerStats{llc1, s1, d1}, true)
	}
	multi := len(l.cores) > 1

	var mt Metrics
	var active []float64 // per-core IPCs of the cores that ran (multi-core)
	for i := range l.cores {
		c := &l.cores[i]
		dC := c.cpuCycles - c.winStartCycles
		dI := c.insts - c.winStartInsts
		// Cores that executed nothing in the window (e.g. still recovering
		// from a long stall that overshot the window) have undefined
		// performance here, not zero — excluding them keeps the geomean
		// meaningful for short windows.
		if multi && dC > 0 {
			active = append(active, float64(dI)/dC)
		}
		if dC > mt.CPUCycles {
			mt.CPUCycles = dC
		}
		mt.Instructions += dI
	}
	// Multi-core IPC is the geometric mean of per-core IPCs, the paper's
	// multi-program measure. One core keeps insts/cycles: GeoMean of one
	// value is exp(log x), which is not bit-exact.
	if multi {
		mt.IPC = stats.GeoMean(active)
	} else if mt.CPUCycles > 0 {
		mt.IPC = float64(mt.Instructions) / mt.CPUCycles
	}
	seconds := mt.CPUCycles / o.CPUCyclesPerMemCycle / o.Params.MemCyclesPerSec
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
	mt.LifetimeYears = o.Params.LifetimeYears(seconds, maxWear)

	dst := diffStats(s0, s1)
	mt.MemReads = dst.Reads
	mt.MemWrites = dst.DemandWrites + dst.EagerWrites
	mt.EagerWrites = dst.EagerWrites
	mt.CancelledWrites = dst.CancelledWrites
	mt.ForcedWrites = dst.ForcedWrites
	mt.SlowWrites = dst.SlowWrites
	mt.FastWrites = dst.FastWrites
	mt.QueueFullStalls = dst.QueueFullStalls

	// CPU static power scales with core count.
	em := o.Energy
	em.CPUStaticPower *= float64(len(l.cores))
	if l.dram != nil {
		dd := diffDRAM(l.winStartDRAM, d1)
		mt.setDRAM(dd)
		mt.Energy = em.ComputeTiered(mt.Instructions, seconds, dst, dramReads(dd), dramWrites(dd))
	} else {
		mt.Energy = em.Compute(mt.Instructions, seconds, dst)
	}
	mt.EnergyJ = mt.Energy.Total()
	mt.WritesByRatio = dst.WritesByRatio

	// Multi-core windows report no LLC or row-buffer hit rate. The mix1
	// golden digests pin this; adding them is a deliberate re-pin.
	if multi {
		return mt
	}
	if rh, rm := dst.RowHits, dst.RowMisses; rh+rm > 0 {
		mt.RowHitRate = float64(rh) / float64(rh+rm)
	}
	hits := llc1.Hits - m.winStartCache.Hits
	total := hits + (llc1.Misses - m.winStartCache.Misses)
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

// setDRAM sets the DRAM tier fields of mt from the tier's counters d.
func (mt *Metrics) setDRAM(d dram.Stats) {
	mt.DRAMHits = d.Hits
	mt.DRAMMisses = d.Misses
	mt.DRAMWriteHits = d.WriteHits
	mt.DRAMEagerAbsorbed = d.EagerAbsorbed
	mt.DRAMPromotions = d.Promotions
	mt.DRAMWritebacks = d.Writebacks
	mt.DRAMHitRate = d.HitRate()
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
		WritesByRatio:   make(nvm.RatioCounts),
	}
	for r, n1 := range s1.WritesByRatio {
		if n0 := s0.WritesByRatio[r]; n1 > n0 {
			d.WritesByRatio[r] = n1 - n0
		}
	}
	return d
}

// finishRun drains every lane's memory hierarchy — dirty DRAM-tier lines
// flush to NVM, then queued writes retire — so their wear and energy are
// charged to the run. A lane's drain starts at its most advanced core's
// clock, and every core's clock catches up to the drain point. Members
// whose decisions differ during the drain split as in step.
func (m *Machine) finishRun() {
	for k := 0; k < len(m.lanes); k++ {
		l := m.lanes[k]
		if l.grp != nil {
			m.begin(k, l, 0)
		}
		end := l.cpuCycles()
		if f := float64(l.mem.Drain(m.memCycle(end))) * m.opt.CPUCyclesPerMemCycle; f > end {
			end = f
		}
		for i := range l.cores {
			if l.cores[i].cpuCycles < end {
				l.cores[i].cpuCycles = end
			}
		}
		if l.grp != nil && l.diverged() != 0 {
			m.split(k, 0)
		}
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
