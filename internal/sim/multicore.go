package sim

import (
	"fmt"

	"mct/internal/cache"
	"mct/internal/config"
	"mct/internal/dram"
	"mct/internal/hierarchy"
	"mct/internal/nvm"
	"mct/internal/rng"
	"mct/internal/stats"
	"mct/internal/trace"
)

// MultiOptions configures the 4-core system of §6.2.5: independent L1/L2
// per core (abstracted into the per-core trace), a shared 8 MB LLC and an
// 8 GB, 32-bank resistive main memory.
type MultiOptions struct {
	Options
	Cores int
}

// DefaultMultiOptions returns the paper's multi-core system.
func DefaultMultiOptions() MultiOptions {
	o := DefaultOptions()
	o.CacheBytes = 8 << 20
	o.Params.Banks = 32
	o.Params.LinesPerBank = 8 << 30 / 32 / 64
	// Shared-memory write-power budget scales with the larger module.
	o.Params.MaxConcurrentWrites = 8
	return MultiOptions{Options: o, Cores: 4}
}

// Validate checks option sanity.
func (o MultiOptions) Validate() error {
	if o.Cores <= 0 {
		return fmt.Errorf("sim: non-positive core count %d", o.Cores)
	}
	return o.Options.Validate()
}

// coreAddrStride separates per-core address spaces (16 GB apart).
const coreAddrStride = 1 << 34

// MultiMachine simulates a multi-programmed workload: one benchmark per
// core, private core clocks, shared LLC and shared NVM. Cores advance in
// near-lockstep (the least-advanced core steps next), so memory contention
// between programs is captured.
type MultiMachine struct {
	opt  MultiOptions
	gens []*trace.Generator
	llc  *cache.Cache
	// dram is the optional shared DRAM cache tier; nil on the stock
	// NVM-only hierarchy. mem is the topmost memory-side tier (see
	// Machine).
	dram *dram.Cache
	ctrl *nvm.Controller
	mem  hierarchy.Mem

	cpuCycles []float64
	insts     []uint64

	winStartCycles []float64
	winStartInsts  []uint64
	winStartStats  nvm.Stats
	winStartDRAM   dram.Stats

	// obsv is the optional observer (AttachObserver); nil means no
	// instrumentation and zero overhead.
	obsv *machineObs
}

// NewMultiMachine builds a multi-core machine running one spec per core
// under cfg.
func NewMultiMachine(specs []trace.Spec, cfg config.Config, opt MultiOptions) (*MultiMachine, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if len(specs) != opt.Cores {
		return nil, fmt.Errorf("sim: %d specs for %d cores", len(specs), opt.Cores)
	}
	llc, err := cache.New(opt.CacheBytes, opt.CacheWays)
	if err != nil {
		return nil, err
	}
	ctrl, err := nvm.New(cfg, opt.Params)
	if err != nil {
		return nil, err
	}
	m := &MultiMachine{
		opt:            opt,
		gens:           make([]*trace.Generator, opt.Cores),
		llc:            llc,
		ctrl:           ctrl,
		mem:            ctrl,
		cpuCycles:      make([]float64, opt.Cores),
		insts:          make([]uint64, opt.Cores),
		winStartCycles: make([]float64, opt.Cores),
		winStartInsts:  make([]uint64, opt.Cores),
	}
	if opt.Tiers.DRAMCache {
		d, err := dram.New(opt.dramParams(), ctrl)
		if err != nil {
			return nil, err
		}
		m.dram = d
		m.mem = d
	}
	for i, spec := range specs {
		m.gens[i] = trace.NewGeneratorAt(spec, rng.DeriveRand(opt.Seed, int64(i)), uint64(i)*coreAddrStride)
	}
	m.beginWindow()
	return m, nil
}

// Config returns the active configuration.
func (m *MultiMachine) Config() config.Config { return m.ctrl.Config() }

// SetConfig reconfigures the shared NVM controller in place.
func (m *MultiMachine) SetConfig(cfg config.Config) error { return m.ctrl.SetConfig(cfg) }

// Options returns the single-machine view of the options (used by metric
// aggregation).
func (m *MultiMachine) Options() Options { return m.opt.Options }

// Cores returns the core count.
func (m *MultiMachine) Cores() int { return m.opt.Cores }

// DRAM exposes the shared DRAM cache tier, nil on NVM-only machines.
func (m *MultiMachine) DRAM() *dram.Cache { return m.dram }

// dramStats returns the DRAM tier's counters, zero on NVM-only machines.
func (m *MultiMachine) dramStats() dram.Stats {
	if m.dram == nil {
		return dram.Stats{}
	}
	return m.dram.Stats()
}

func (m *MultiMachine) beginWindow() {
	copy(m.winStartCycles, m.cpuCycles)
	copy(m.winStartInsts, m.insts)
	m.winStartStats = m.ctrl.Stats()
	m.winStartDRAM = m.dramStats()
}

// stepCore advances the least-advanced core by one access. Hot-path root:
// the multi-program inner loop.
//
//mctlint:hotpath
func (m *MultiMachine) stepCore() {
	core := 0
	for i := 1; i < m.opt.Cores; i++ {
		if m.cpuCycles[i] < m.cpuCycles[core] {
			core = i
		}
	}
	o := &m.opt.Options
	a := m.gens[core].Next()
	m.cpuCycles[core] += float64(a.InstGap) * o.BaseCPI
	m.insts[core] += uint64(a.InstGap)

	res := m.llc.Access(a.Addr, a.Write)
	if res.Hit {
		m.cpuCycles[core] += o.LLCHitCycles
		return
	}
	now := uint64(m.cpuCycles[core] / o.CPUCyclesPerMemCycle)
	if res.Writeback {
		accepted := m.mem.Write(res.WritebackAddr, now)
		if accepted > now {
			m.cpuCycles[core] += float64(accepted-now) * o.CPUCyclesPerMemCycle
			now = accepted
		}
	}
	done := m.mem.Read(res.FillAddr, now)
	latCPU := float64(done-now) * o.CPUCyclesPerMemCycle
	if a.Write {
		m.cpuCycles[core] += latCPU * o.StoreStallFactor
	} else {
		m.cpuCycles[core] += latCPU * o.ReadStallFactor
	}

	if eager, threshold := m.ctrl.EagerPolicy(); eager && m.mem.EagerSpace() {
		useless := m.llc.UselessPositions(threshold)
		if useless > 0 {
			if addr, ok := m.llc.NextEagerVictim(useless, o.EagerScanSets); ok {
				m.mem.EagerWrite(addr, uint64(m.cpuCycles[core]/o.CPUCyclesPerMemCycle))
			}
		}
	}
}

// MultiMetrics extends Metrics with per-core performance. Metrics.IPC holds
// the geometric mean of per-core IPCs (the paper's multi-program
// performance measure).
type MultiMetrics struct {
	Metrics
	PerCoreIPC []float64
}

// RunInstructions executes until the cores have committed at least n
// further instructions in total, returning window metrics. Cores advance in
// cycle-lockstep (the least-advanced core steps next), so each contributes
// in proportion to its speed. The window wall-clock is the slowest core's
// cycle delta.
func (m *MultiMachine) RunInstructions(n uint64) MultiMetrics {
	m.beginWindow()
	var start uint64
	for _, v := range m.winStartInsts {
		start += v
	}
	target := start + n
	for {
		var tot uint64
		for _, v := range m.insts {
			tot += v
		}
		if tot >= target {
			break
		}
		m.stepCore()
	}
	return m.windowMetrics()
}

func (m *MultiMachine) windowMetrics() MultiMetrics {
	o := &m.opt.Options
	s1 := m.ctrl.Stats()
	s0 := m.winStartStats
	d1 := m.dramStats()
	if m.obsv != nil {
		m.obsv.publish(m.llc.Stats(), s1, d1, true)
	}

	var mm MultiMetrics
	mm.PerCoreIPC = make([]float64, m.opt.Cores)
	var maxCycles float64
	var totInsts uint64
	var active []float64
	for i := range m.insts {
		dC := m.cpuCycles[i] - m.winStartCycles[i]
		dI := m.insts[i] - m.winStartInsts[i]
		if dC > 0 {
			mm.PerCoreIPC[i] = float64(dI) / dC
			// Cores that executed nothing in the window (e.g. still
			// recovering from a long stall that overshot the window) have
			// undefined performance here, not zero — excluding them keeps
			// the geomean meaningful for short windows.
			active = append(active, mm.PerCoreIPC[i])
		}
		if dC > maxCycles {
			maxCycles = dC
		}
		totInsts += dI
	}
	mm.Instructions = totInsts
	mm.CPUCycles = maxCycles
	mm.IPC = stats.GeoMean(active)
	seconds := maxCycles / o.CPUCyclesPerMemCycle / o.Params.MemCyclesPerSec
	mm.Seconds = seconds

	wearDelta := make([]float64, len(s1.WearByBank))
	var maxWear float64
	for b, w1 := range s1.WearByBank {
		d := w1 - s0.WearByBank[b]
		wearDelta[b] = d
		if d > maxWear {
			maxWear = d
		}
	}
	mm.WearByBankDelta = wearDelta
	budget := float64(o.Params.LinesPerBank) * o.Params.WearLevelEff
	if maxWear <= 0 || seconds <= 0 {
		mm.LifetimeYears = 1000
	} else {
		mm.LifetimeYears = seconds * budget / maxWear / nvm.SecondsPerYear
		if mm.LifetimeYears > 1000 {
			mm.LifetimeYears = 1000
		}
	}

	dst := diffStats(s0, s1)
	mm.MemReads = dst.Reads
	mm.MemWrites = dst.DemandWrites + dst.EagerWrites
	mm.EagerWrites = dst.EagerWrites
	mm.CancelledWrites = dst.CancelledWrites
	mm.ForcedWrites = dst.ForcedWrites
	mm.SlowWrites = dst.SlowWrites
	mm.FastWrites = dst.FastWrites
	mm.QueueFullStalls = dst.QueueFullStalls
	mm.WritesByRatio = dst.WritesByRatio

	// CPU static power scales with core count.
	em := o.Energy
	em.CPUStaticPower *= float64(m.opt.Cores)
	if m.dram != nil {
		dd := diffDRAM(m.winStartDRAM, d1)
		mm.DRAMHits = dd.Hits
		mm.DRAMMisses = dd.Misses
		mm.DRAMWriteHits = dd.WriteHits
		mm.DRAMEagerAbsorbed = dd.EagerAbsorbed
		mm.DRAMPromotions = dd.Promotions
		mm.DRAMWritebacks = dd.Writebacks
		mm.DRAMHitRate = dd.HitRate()
		mm.Energy = em.ComputeTiered(totInsts, seconds, dst, dramReads(dd), dramWrites(dd))
	} else {
		mm.Energy = em.Compute(totInsts, seconds, dst)
	}
	mm.EnergyJ = mm.Energy.Total()
	return mm
}
