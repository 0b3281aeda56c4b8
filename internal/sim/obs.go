// Observer wiring for machines. A machine optionally carries an
// obs.Registry plus the per-layer publishers that feed it; the hot path
// (step) is untouched — publishing happens from cumulative stats at window
// boundaries, in windowMetrics. Observers ride along the snapshot contract:
// Clone deep-copies the registry, Snapshot embeds its state in checkpoints,
// and RestoreMachine re-attaches it with baselines rebased to the restore
// point so nothing is double-counted.
package sim

import (
	"mct/internal/cache"
	"mct/internal/dram"
	"mct/internal/nvm"
	"mct/internal/obs"
)

// machineObs bundles a registry with the per-tier publishers feeding it,
// plus the sim-level window counter. The dram publisher is nil on
// NVM-only machines: their registries carry no dram.* instruments, so
// metric dumps of the stock hierarchy are unchanged by the tier seam.
type machineObs struct {
	reg *obs.Registry
	co  *cache.Obs
	no  *nvm.Obs
	do  *dram.Obs
	// windows counts metric-window computations — a cheap liveness signal
	// and a determinism tripwire (it must match across worker counts and
	// checkpoint resume).
	windows *obs.Counter
}

// newMachineObs registers the sim-side instruments on r and builds the
// layer publishers with zero baselines (callers rebase for warm state).
// withDRAM registers the dram.* family too.
func newMachineObs(r *obs.Registry, ways int, wearBudget float64, withDRAM bool) *machineObs {
	o := &machineObs{
		reg:     r,
		co:      cache.NewObs(r, ways),
		no:      nvm.NewObs(r, wearBudget),
		windows: r.Counter("sim.windows"),
	}
	if withDRAM {
		o.do = dram.NewObs(r)
	}
	return o
}

// clone rebinds the observer to a deep copy of its registry, preserving
// publisher baselines so the cloned machine continues accounting exactly
// where the parent left off.
func (o *machineObs) clone() *machineObs {
	r2 := o.reg.Clone()
	n := &machineObs{
		reg: r2,
		co:  o.co.CloneInto(r2),
		no:  o.no.CloneInto(r2),
		// Get-or-create finds the cloned instrument, value preserved.
		windows: r2.Counter("sim.windows"),
	}
	if o.do != nil {
		n.do = o.do.CloneInto(r2)
	}
	return n
}

// publish pushes the window's deltas into the registry. ds is ignored on
// machines without a DRAM tier (it is zero there anyway).
func (o *machineObs) publish(cs cache.Stats, st nvm.Stats, ds dram.Stats, countWindow bool) {
	o.co.Publish(cs)
	o.no.Publish(st)
	if o.do != nil {
		o.do.Publish(ds)
	}
	if countWindow {
		o.windows.Inc()
	}
}

// AttachObserver wires r into the machine: the per-tier metric families
// are registered on r and publishing starts at the next window boundary.
// Baselines are set to the machine's current stats, so only activity from
// the attach point on is accounted (this is what makes restore-then-attach
// free of double counting). A nil r detaches.
func (m *Machine) AttachObserver(r *obs.Registry) {
	if r == nil {
		m.obsv = nil
		return
	}
	o := newMachineObs(r, m.llc.Ways(), m.ctrl.WearBudget(), m.dram != nil)
	o.co.Rebase(m.llc.Stats())
	o.no.Rebase(m.ctrl.Stats())
	if o.do != nil {
		o.do.Rebase(m.dram.Stats())
	}
	m.obsv = o
}

// Observer returns the attached registry, or nil.
func (m *Machine) Observer() *obs.Registry {
	if m.obsv == nil {
		return nil
	}
	return m.obsv.reg
}

// SyncObserver publishes any stats accumulated since the last window
// boundary without ending the window (used before dumping or
// snapshotting). No-op when no observer is attached.
func (m *Machine) SyncObserver() {
	if m.obsv != nil {
		m.obsv.publish(m.llc.Stats(), m.ctrl.Stats(), m.dramStats(), false)
	}
}
