package sim

import "mct/internal/nvm"

// Accum aggregates the window metrics of one configuration across
// non-contiguous windows — exactly what the cyclic fine-grained sampling
// schedule of §5.2 produces (each sample configuration runs many short,
// interleaved units). IPC, lifetime and energy are recomputed from the
// summed raw components, so the aggregate equals what one contiguous run of
// the same windows would have reported.
type Accum struct {
	opt Options

	insts      uint64
	cpuCycles  float64
	seconds    float64
	wearByBank []float64

	memReads, memWrites                         uint64
	eager, cancelled, forced, slow, fast, qfull uint64
	writesByRatio                               nvm.RatioCounts
	hitWeighted                                 float64 // Σ hitRate·window accesses (approximated by reads+writes)
	windows                                     int

	// DRAM tier counters (all zero when the system has no DRAM tier).
	dramHits, dramMisses, dramWriteHits    uint64
	dramEagerAbsorbed, dramPromos, dramWbs uint64
}

// NewAccum returns an empty accumulator for systems described by opt.
func NewAccum(opt Options) *Accum {
	return &Accum{opt: opt, writesByRatio: make(nvm.RatioCounts)}
}

// Windows returns how many windows have been folded in.
func (a *Accum) Windows() int { return a.windows }

// Add folds one window's metrics into the aggregate.
func (a *Accum) Add(m Metrics) {
	a.windows++
	a.insts += m.Instructions
	a.cpuCycles += m.CPUCycles
	a.seconds += m.Seconds
	if a.wearByBank == nil {
		a.wearByBank = make([]float64, len(m.WearByBankDelta))
	}
	for b, w := range m.WearByBankDelta {
		a.wearByBank[b] += w
	}
	a.memReads += m.MemReads
	a.memWrites += m.MemWrites
	a.eager += m.EagerWrites
	a.cancelled += m.CancelledWrites
	a.forced += m.ForcedWrites
	a.slow += m.SlowWrites
	a.fast += m.FastWrites
	a.qfull += m.QueueFullStalls
	for r, n := range m.WritesByRatio {
		a.writesByRatio[r] += n
	}
	a.hitWeighted += m.LLCHitRate * float64(m.MemReads+m.MemWrites)
	a.dramHits += m.DRAMHits
	a.dramMisses += m.DRAMMisses
	a.dramWriteHits += m.DRAMWriteHits
	a.dramEagerAbsorbed += m.DRAMEagerAbsorbed
	a.dramPromos += m.DRAMPromotions
	a.dramWbs += m.DRAMWritebacks
}

// Metrics returns the aggregate as a single Metrics value.
func (a *Accum) Metrics() Metrics {
	var mt Metrics
	mt.Instructions = a.insts
	mt.CPUCycles = a.cpuCycles
	if a.cpuCycles > 0 {
		mt.IPC = float64(a.insts) / a.cpuCycles
	}
	mt.Seconds = a.seconds

	var maxWear float64
	for _, w := range a.wearByBank {
		if w > maxWear {
			maxWear = w
		}
	}
	mt.LifetimeYears = a.opt.Params.LifetimeYears(a.seconds, maxWear)
	mt.WearByBankDelta = append([]float64(nil), a.wearByBank...)

	mt.MemReads = a.memReads
	mt.MemWrites = a.memWrites
	mt.EagerWrites = a.eager
	mt.CancelledWrites = a.cancelled
	mt.ForcedWrites = a.forced
	mt.SlowWrites = a.slow
	mt.FastWrites = a.fast
	mt.QueueFullStalls = a.qfull

	st := nvm.Stats{Reads: a.memReads, WritesByRatio: a.writesByRatio}
	if a.opt.Tiers.DRAMCache {
		mt.DRAMHits = a.dramHits
		mt.DRAMMisses = a.dramMisses
		mt.DRAMWriteHits = a.dramWriteHits
		mt.DRAMEagerAbsorbed = a.dramEagerAbsorbed
		mt.DRAMPromotions = a.dramPromos
		mt.DRAMWritebacks = a.dramWbs
		if tot := a.dramHits + a.dramMisses; tot > 0 {
			mt.DRAMHitRate = float64(a.dramHits) / float64(tot)
		}
		reads := a.dramHits
		writes := a.dramWriteHits + a.dramEagerAbsorbed + a.dramPromos
		mt.Energy = a.opt.Energy.ComputeTiered(a.insts, a.seconds, st, reads, writes)
	} else {
		mt.Energy = a.opt.Energy.Compute(a.insts, a.seconds, st)
	}
	mt.EnergyJ = mt.Energy.Total()
	mt.WritesByRatio = a.writesByRatio

	if tot := a.memReads + a.memWrites; tot > 0 {
		mt.LLCHitRate = a.hitWeighted / float64(tot)
	}
	return mt
}
