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
	"io"
	"math"
	"os"
	"path/filepath"

	"mct/internal/atomicfile"
	"mct/internal/cache"
	"mct/internal/dram"
	"mct/internal/nvm"
	"mct/internal/obs"
	"mct/internal/trace"
)

// Clone returns an independent deep copy of the machine: both continue the
// identical simulation from the current point, and stepping one never
// perturbs the other. Options are pure values and copy by assignment.
func (m *Machine) Clone() *Machine {
	n := m.fork(1)
	if m.obsv != nil {
		n.obsv = m.obsv.clone()
	}
	return n
}

// fork returns a deep copy of the machine without its observer, with one
// lane, a copy of lane 0, and room in the LLC for k lanes (the lanes a
// batch splits into; see cache.Fork). The scratch batch buffer is
// per-machine and not copied: the fork allocates its own on first
// streaming run, since a shared backing array would race under concurrent
// Prepared evaluations.
func (m *Machine) fork(k int) *Machine {
	n := &Machine{
		opt:           m.opt,
		gens:          make([]*trace.Generator, len(m.gens)),
		llc:           m.llc.Fork(k),
		lane:          m.lane.clone(),
		lanes:         make([]*lane, 1, k),
		winStartCache: m.winStartCache.Clone(),
	}
	for i, g := range m.gens {
		n.gens[i] = g.Clone()
	}
	n.lanes[0] = &n.lane
	return n
}

// clone deep-copies the lane's clocks, tiers and window bookkeeping (not
// its batch positions or members).
func (l *lane) clone() lane {
	n := lane{
		cores:         append([]coreState(nil), l.cores...),
		winStartStats: l.winStartStats.Clone(),
		winStartDRAM:  l.winStartDRAM.Clone(),
	}
	n.setTiers(l.ctrl.Clone(), l.dram)
	return n
}

// setTiers makes ctrl the lane's controller and, when d is set, a clone of
// d forwarding to ctrl its DRAM tier: the tier chain is rebuilt bottom-up
// so the mem seam points into the lane's own hierarchy.
func (l *lane) setTiers(ctrl *nvm.Controller, d *dram.Cache) {
	l.ctrl, l.dram, l.mem = ctrl, nil, ctrl
	if d != nil {
		l.dram = d.Clone(ctrl)
		l.mem = l.dram
	}
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
	// had none.
	Obs *obs.State

	// DRAM is the DRAM cache tier's state, nil on NVM-only machines.
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
		Gen:            m.gens[0].Snapshot(),
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
		opt:  st.Options,
		gens: []*trace.Generator{gen},
		llc:  llc,
		lane: lane{
			cores: []coreState{{
				cpuCycles:      st.CPUCycles,
				insts:          st.Insts,
				winStartCycles: st.WinStartCycles,
				winStartInsts:  st.WinStartInsts,
			}},
			ctrl:          ctrl,
			mem:           ctrl,
			winStartStats: st.WinStartStats.Clone(),
			winStartDRAM:  st.WinStartDRAM.Clone(),
		},
		winStartCache: st.WinStartCache.Clone(),
	}
	m.lanes = []*lane{&m.lane}
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
		if err := m.attachRestored(reg); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// attachRestored attaches a registry restored from a checkpoint. The
// registry panics when a family is registered again with another kind,
// volatility or bucket layout, which a crafted checkpoint can ask for
// (say, wear buckets for other bank parameters); that is an error here.
func (m *Machine) attachRestored(reg *obs.Registry) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: checkpoint observer does not fit the machine: %v", r)
		}
	}()
	m.AttachObserver(reg)
	return nil
}

const (
	checkpointMagic = "mct-machine-checkpoint"
	// checkpointVersion 2 encodes each map of the state in key order
	// (nvm.RatioCounts, obs.State), so two checkpoints of one state are
	// byte-equal; version-1 files fail to load.
	checkpointVersion = 2
)

// checkpointHeader is the first gob value of a checkpoint, the
// MachineState the second. The header is decoded on its own, so a
// checkpoint of another version fails on its version before its state's
// types are read. (A version-1 checkpoint is one value holding the header
// fields and the state; its header decodes the same way.)
type checkpointHeader struct {
	Magic   string
	Version int
}

// SaveCheckpoint writes the machine's state to path (gob, versioned; two
// checkpoints of one state are byte-equal). The write is atomic: a temp
// file in the target directory is renamed over path only after a complete
// encode, so a crash never leaves a torn checkpoint. The format holds one
// core, so multi-core machines are rejected.
func SaveCheckpoint(path string, m *Machine) error {
	var buf bytes.Buffer
	if err := writeCheckpoint(&buf, m); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return atomicfile.Write(path, buf.Bytes())
}

// writeCheckpoint encodes the machine's checkpoint to w.
func writeCheckpoint(w io.Writer, m *Machine) error {
	if len(m.cores) > 1 {
		return fmt.Errorf("sim: checkpoints are single-core only; machine has %d cores", len(m.cores))
	}
	return encodeCheckpoint(w, m.Snapshot())
}

// encodeCheckpoint writes st as a checkpoint to w.
func encodeCheckpoint(w io.Writer, st MachineState) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(checkpointHeader{Magic: checkpointMagic, Version: checkpointVersion}); err != nil {
		return fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	if err := enc.Encode(st); err != nil {
		return fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint rebuilds a machine from a checkpoint written by
// SaveCheckpoint.
func LoadCheckpoint(path string) (*Machine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := readCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// readCheckpoint decodes a checkpoint from r and rebuilds its machine.
func readCheckpoint(r io.Reader) (*Machine, error) {
	dec := gob.NewDecoder(r)
	var hdr checkpointHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("sim: decode checkpoint: %w", err)
	}
	if hdr.Magic != checkpointMagic {
		return nil, fmt.Errorf("sim: not a machine checkpoint")
	}
	if hdr.Version != checkpointVersion {
		return nil, fmt.Errorf("sim: checkpoint has version %d, this binary reads %d", hdr.Version, checkpointVersion)
	}
	var st MachineState
	if err := dec.Decode(&st); err != nil {
		return nil, fmt.Errorf("sim: decode checkpoint: %w", err)
	}
	return RestoreMachine(st)
}
