// Lockstep reference for the multi-core machine: refMultiMachine is the
// standalone multi-core simulator the N-core Machine replaced, kept
// verbatim (minus the observer, which never feeds metrics) so the folded
// machine can be driven beside it access for access. Any divergence in a
// window's metrics, a core's clock or a core's instruction count fails.
package sim

import (
	"reflect"
	"testing"

	"mct/internal/cache"
	"mct/internal/config"
	"mct/internal/dram"
	"mct/internal/hierarchy"
	"mct/internal/nvm"
	"mct/internal/rng"
	"mct/internal/stats"
	"mct/internal/trace"
)

type refMultiMachine struct {
	opt   Options
	cores int
	gens  []*trace.Generator
	llc   *cache.Cache
	dram  *dram.Cache
	ctrl  *nvm.Controller
	mem   hierarchy.Mem

	cpuCycles []float64
	insts     []uint64

	winStartCycles []float64
	winStartInsts  []uint64
	winStartStats  nvm.Stats
	winStartDRAM   dram.Stats
}

type refMultiMetrics struct {
	Metrics
	PerCoreIPC []float64
}

func newRefMultiMachine(specs []trace.Spec, cfg config.Config, opt MultiOptions) (*refMultiMachine, error) {
	llc, err := cache.New(opt.CacheBytes, opt.CacheWays)
	if err != nil {
		return nil, err
	}
	ctrl, err := nvm.New(cfg, opt.Params)
	if err != nil {
		return nil, err
	}
	cores := len(specs)
	m := &refMultiMachine{
		opt:            opt.Options,
		cores:          cores,
		gens:           make([]*trace.Generator, cores),
		llc:            llc,
		ctrl:           ctrl,
		mem:            ctrl,
		cpuCycles:      make([]float64, cores),
		insts:          make([]uint64, cores),
		winStartCycles: make([]float64, cores),
		winStartInsts:  make([]uint64, cores),
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

func (m *refMultiMachine) dramStats() dram.Stats {
	if m.dram == nil {
		return dram.Stats{}
	}
	return m.dram.Stats()
}

func (m *refMultiMachine) beginWindow() {
	copy(m.winStartCycles, m.cpuCycles)
	copy(m.winStartInsts, m.insts)
	m.winStartStats = m.ctrl.Stats()
	m.winStartDRAM = m.dramStats()
}

func (m *refMultiMachine) stepCore() {
	core := 0
	for i := 1; i < m.cores; i++ {
		if m.cpuCycles[i] < m.cpuCycles[core] {
			core = i
		}
	}
	o := &m.opt
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

func (m *refMultiMachine) RunInstructions(n uint64) refMultiMetrics {
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

func (m *refMultiMachine) Warmup(n int) uint64 {
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

func (m *refMultiMachine) settleHierarchy() {
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

func (m *refMultiMachine) windowMetrics() refMultiMetrics {
	o := &m.opt
	s1 := m.ctrl.Stats()
	s0 := m.winStartStats
	d1 := m.dramStats()

	var mm refMultiMetrics
	mm.PerCoreIPC = make([]float64, m.cores)
	var maxCycles float64
	var totInsts uint64
	var active []float64
	for i := range m.insts {
		dC := m.cpuCycles[i] - m.winStartCycles[i]
		dI := m.insts[i] - m.winStartInsts[i]
		if dC > 0 {
			mm.PerCoreIPC[i] = float64(dI) / dC
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

	em := o.Energy
	em.CPUStaticPower *= float64(m.cores)
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

func (m *refMultiMachine) Clone() *refMultiMachine {
	n := *m
	n.gens = make([]*trace.Generator, len(m.gens))
	for i, g := range m.gens {
		n.gens[i] = g.Clone()
	}
	n.llc = m.llc.Clone()
	n.ctrl = m.ctrl.Clone()
	n.mem = hierarchy.Mem(n.ctrl)
	if m.dram != nil {
		n.dram = m.dram.Clone(n.ctrl)
		n.mem = n.dram
	}
	n.winStartDRAM = m.winStartDRAM.Clone()
	n.cpuCycles = append([]float64(nil), m.cpuCycles...)
	n.insts = append([]uint64(nil), m.insts...)
	n.winStartCycles = append([]float64(nil), m.winStartCycles...)
	n.winStartInsts = append([]uint64(nil), m.winStartInsts...)
	n.winStartStats = m.winStartStats.Clone()
	return &n
}

// requireLockstep fails unless the folded machine's core clocks and
// instruction counts equal the reference's bit for bit.
func requireLockstep(t *testing.T, where string, got *Machine, want *refMultiMachine) {
	t.Helper()
	if len(got.cores) != want.cores {
		t.Fatalf("%s: %d cores, reference %d", where, len(got.cores), want.cores)
	}
	for i := range got.cores {
		c := &got.cores[i]
		if c.cpuCycles != want.cpuCycles[i] || c.insts != want.insts[i] { //mctlint:ignore floateq lockstep means bit-identical clocks
			t.Fatalf("%s: core %d at (%v cycles, %d insts), reference (%v, %d)",
				where, i, c.cpuCycles, c.insts, want.cpuCycles[i], want.insts[i])
		}
	}
}

// requireWindow fails unless a window's metrics and per-core IPCs equal
// the reference's, and the clocks still agree.
func requireWindow(t *testing.T, where string, got Metrics, gm *Machine, want refMultiMetrics, wm *refMultiMachine) {
	t.Helper()
	if !reflect.DeepEqual(got, want.Metrics) {
		t.Fatalf("%s: metrics diverged\nfolded:    %+v\nreference: %+v", where, got, want.Metrics)
	}
	if ipcs := perCoreIPC(gm); !reflect.DeepEqual(ipcs, want.PerCoreIPC) {
		t.Fatalf("%s: per-core IPCs %v, reference %v", where, ipcs, want.PerCoreIPC)
	}
	requireLockstep(t, where, gm, wm)
}

// TestMultiCoreReferenceLockstep drives the folded N-core Machine and the
// reference multi-core simulator side by side on every mix, NVM-only and
// with the DRAM tier: warmup, windows under the all-fast default, a
// mid-run switch to the static baseline (eager writebacks on), then clones
// of both continuing while the parents stay put.
func TestMultiCoreReferenceLockstep(t *testing.T) {
	const (
		warm   = MultiWarmupAccesses
		window = 1_000_000
	)
	for _, mix := range trace.MixNames() {
		for _, tiered := range []bool{false, true} {
			name := mix
			if tiered {
				name += "/dram"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				specs, err := trace.MixByName(mix)
				if err != nil {
					t.Fatal(err)
				}
				opt := DefaultMultiOptions()
				opt.Seed = 3
				opt.Tiers.DRAMCache = tiered
				mm, err := NewMultiMachine(specs, config.Default(), opt)
				if err != nil {
					t.Fatal(err)
				}
				got := mm.Machine
				ref, err := newRefMultiMachine(specs, config.Default(), opt)
				if err != nil {
					t.Fatal(err)
				}

				if g, w := got.Warmup(warm), ref.Warmup(warm); g != w {
					t.Fatalf("warmup committed %d insts, reference %d", g, w)
				}
				requireLockstep(t, "after warmup", got, ref)
				requireWindow(t, "window 1", got.RunInstructions(window), got, ref.RunInstructions(window), ref)

				if err := got.SetConfig(config.StaticBaseline()); err != nil {
					t.Fatal(err)
				}
				if err := ref.ctrl.SetConfig(config.StaticBaseline()); err != nil {
					t.Fatal(err)
				}
				w2 := got.RunInstructions(window)
				requireWindow(t, "window 2 (static)", w2, got, ref.RunInstructions(window), ref)
				if w2.EagerWrites == 0 {
					t.Fatal("static window issued no eager writes; the miss-only harvest goes unchecked")
				}

				gc, rc := mm.Clone().Machine, ref.Clone()
				for i := 3; i <= 4; i++ {
					requireWindow(t, "clone window", gc.RunInstructions(window), gc, rc.RunInstructions(window), rc)
				}
				requireWindow(t, "parent after clone", got.RunInstructions(window), got, ref.RunInstructions(window), ref)
			})
		}
	}
}
