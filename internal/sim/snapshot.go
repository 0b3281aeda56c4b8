// Snapshot support for machines: deep-copy cloning (warm-start sweeps,
// speculative what-if branches) and versioned on-disk checkpoints
// (pausable/resumable long runs).
//
// The snapshot contract (see DESIGN.md): Clone shares nothing mutable with
// its parent — every layer (trace generator incl. PRNG position, LLC, NVM
// controller, window bookkeeping stats) is deep-copied, so a clone replayed
// over the same accesses produces byte-identical metrics while the parent
// stays frozen.
package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"mct/internal/atomicfile"
	"mct/internal/cache"
	"mct/internal/dram"
	"mct/internal/hierarchy"
	"mct/internal/nvm"
	"mct/internal/obs"
	"mct/internal/trace"
)

// Clone returns an independent deep copy of the machine: both continue the
// identical simulation from the current point, and stepping one never
// perturbs the other. Options are pure values and copy by assignment.
func (m *Machine) Clone() *Machine {
	n := *m
	// The scratch batch buffer is per-machine: dropping it here makes the
	// clone allocate its own on first streaming run. Copying the slice
	// header would share the backing array, a data race under concurrent
	// Prepared.Evaluate.
	n.batch = nil
	n.cores = append([]coreState(nil), m.cores...)
	for i := range n.cores {
		n.cores[i].gen = m.cores[i].gen.Clone()
	}
	n.llc = m.llc.Clone()
	n.ctrl = m.ctrl.Clone()
	// Rebuild the tier chain bottom-up onto the cloned controller so the
	// clone's mem seam points into its own hierarchy, not the parent's.
	n.mem = hierarchy.Mem(n.ctrl)
	if m.dram != nil {
		n.dram = m.dram.Clone(n.ctrl)
		n.mem = n.dram
	}
	n.winStartStats = m.winStartStats.Clone()
	n.winStartCache = m.winStartCache.Clone()
	n.winStartDRAM = m.winStartDRAM.Clone()
	if m.obsv != nil {
		n.obsv = m.obsv.clone()
	}
	return &n
}

// MachineState is the complete serializable state of a Machine, the payload
// of on-disk checkpoints.
type MachineState struct {
	Options Options

	Gen  trace.GeneratorState
	LLC  cache.Snapshot
	Ctrl nvm.Snapshot

	CPUCycles float64
	Insts     uint64

	WinStartCycles float64
	WinStartInsts  uint64
	WinStartStats  nvm.Stats
	WinStartCache  cache.Stats

	// Obs is the attached observer registry's state, nil when the machine
	// had none. A gob-additive field: version-1 checkpoints written before
	// observers existed decode with Obs nil, which restores to "no
	// observer" — exactly their meaning.
	Obs *obs.State

	// DRAM is the DRAM cache tier's state, nil on NVM-only machines.
	// Gob-additive like Obs: checkpoints written before the tier seam
	// existed decode with DRAM nil — an NVM-only hierarchy, exactly their
	// meaning. WinStartDRAM rides along the same way (zero for them).
	DRAM         *dram.Snapshot
	WinStartDRAM dram.Stats
}

// Snapshot captures a single-core machine's complete state (a multi-core
// machine's core 0 alone; SaveCheckpoint rejects those). Pending window
// deltas are published first, so the captured registry accounts everything
// up to the snapshot point and a restored machine (whose publisher
// baselines are rebased to the restored stats) continues without gaps or
// double counts.
//
// batch and mem are not captured: batch is a scratch buffer, not state,
// and mem is derived wiring (dram or ctrl), so a restored machine
// allocates its own buffer and rewires the seam from the restored tiers.
func (m *Machine) Snapshot() MachineState {
	var obsState *obs.State
	if m.obsv != nil {
		m.obsv.publish(m.llc.Stats(), m.ctrl.Stats(), m.dramStats(), false)
		s := m.obsv.reg.State()
		obsState = &s
	}
	var dramState *dram.Snapshot
	if m.dram != nil {
		s := m.dram.Snapshot()
		dramState = &s
	}
	c := &m.cores[0]
	return MachineState{
		Obs:            obsState,
		DRAM:           dramState,
		Options:        m.opt,
		Gen:            c.gen.Snapshot(),
		LLC:            m.llc.Snapshot(),
		Ctrl:           m.ctrl.Snapshot(),
		CPUCycles:      c.cpuCycles,
		Insts:          c.insts,
		WinStartCycles: c.winStartCycles,
		WinStartInsts:  c.winStartInsts,
		WinStartStats:  m.winStartStats.Clone(),
		WinStartCache:  m.winStartCache.Clone(),
		WinStartDRAM:   m.winStartDRAM.Clone(),
	}
}

// RestoreMachine rebuilds a machine from a state captured with Snapshot.
// The rebuilt machine continues the identical simulation.
func RestoreMachine(st MachineState) (*Machine, error) {
	if err := st.Options.Validate(); err != nil {
		return nil, fmt.Errorf("sim: checkpoint options: %w", err)
	}
	if st.Ctrl.Params != st.Options.Params {
		return nil, fmt.Errorf("sim: checkpoint controller params disagree with machine options")
	}
	llc, err := cache.FromSnapshot(st.LLC)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint LLC: %w", err)
	}
	ctrl, err := nvm.FromSnapshot(st.Ctrl)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint controller: %w", err)
	}
	gen, err := trace.FromState(st.Gen)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint generator: %w", err)
	}
	if st.Options.Tiers.DRAMCache != (st.DRAM != nil) {
		return nil, fmt.Errorf("sim: checkpoint tier composition disagrees with machine options")
	}
	// The clocks feed uint64(cycles/ratio) conversions, which turn a NaN,
	// infinite or negative count into garbage instead of an error.
	for _, c := range []float64{st.CPUCycles, st.WinStartCycles} {
		if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
			return nil, fmt.Errorf("sim: checkpoint cycle counts must be finite and non-negative (clock %v, window start %v)",
				st.CPUCycles, st.WinStartCycles)
		}
	}
	if st.WinStartCycles > st.CPUCycles || st.WinStartInsts > st.Insts {
		return nil, fmt.Errorf("sim: checkpoint window starts after the machine clock (cycles %v > %v or insts %d > %d)",
			st.WinStartCycles, st.CPUCycles, st.WinStartInsts, st.Insts)
	}
	m := &Machine{
		opt: st.Options,
		cores: []coreState{{
			gen:            gen,
			cpuCycles:      st.CPUCycles,
			insts:          st.Insts,
			winStartCycles: st.WinStartCycles,
			winStartInsts:  st.WinStartInsts,
		}},
		llc:           llc,
		ctrl:          ctrl,
		mem:           ctrl,
		winStartStats: st.WinStartStats.Clone(),
		winStartCache: st.WinStartCache.Clone(),
		winStartDRAM:  st.WinStartDRAM.Clone(),
	}
	if st.DRAM != nil {
		d, err := dram.FromSnapshot(*st.DRAM, ctrl)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint DRAM tier: %w", err)
		}
		m.dram = d
		m.mem = d
	}
	if st.Obs != nil {
		reg, err := obs.FromState(*st.Obs)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint observer: %w", err)
		}
		m.AttachObserver(reg)
	}
	return m, nil
}

const (
	checkpointMagic   = "mct-machine-checkpoint"
	checkpointVersion = 1
)

// checkpointEnvelope versions the on-disk format so stale checkpoints fail
// loudly instead of decoding garbage.
type checkpointEnvelope struct {
	Magic   string
	Version int
	State   MachineState
}

// SaveCheckpoint writes the machine's state to path (gob, versioned). The
// write is atomic: a temp file in the target directory is renamed over path
// only after a complete encode, so a crash never leaves a torn checkpoint.
// The format holds one core, so multi-core machines are rejected.
func SaveCheckpoint(path string, m *Machine) error {
	if len(m.cores) > 1 {
		return fmt.Errorf("sim: checkpoints are single-core only; machine has %d cores", len(m.cores))
	}
	var buf bytes.Buffer
	env := checkpointEnvelope{Magic: checkpointMagic, Version: checkpointVersion, State: m.Snapshot()}
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		return fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return atomicfile.Write(path, buf.Bytes())
}

// LoadCheckpoint rebuilds a machine from a checkpoint written by
// SaveCheckpoint.
func LoadCheckpoint(path string) (*Machine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var env checkpointEnvelope
	if err := gob.NewDecoder(f).Decode(&env); err != nil {
		return nil, fmt.Errorf("sim: decode checkpoint %s: %w", path, err)
	}
	if env.Magic != checkpointMagic {
		return nil, fmt.Errorf("sim: %s is not a machine checkpoint", path)
	}
	if env.Version != checkpointVersion {
		return nil, fmt.Errorf("sim: checkpoint %s has version %d, this binary reads %d", path, env.Version, checkpointVersion)
	}
	return RestoreMachine(env.State)
}
