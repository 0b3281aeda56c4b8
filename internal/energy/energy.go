// Package energy provides the analytical system-energy model standing in
// for McPAT (processor) and NVSim (NVM) from §6.1. System energy is the sum
// of CPU dynamic energy (per instruction), CPU static energy (per second),
// NVM access energy (per read and per write, with write energy depending on
// the latency ratio), and NVM background energy (per second).
//
// The write-energy/latency relationship follows the mellow-writes device
// model: slow writes use a lower write current, with power scaling ≈ r^-1.5
// so that energy per write scales as r^-0.5 — slower writes are mildly
// cheaper in energy but much cheaper in wear (endurance ∝ r²). Cancelled
// write attempts are charged in full, so aggressive cancellation wastes
// energy as well as lifetime.
package energy

import (
	"fmt"
	"math"

	"mct/internal/nvm"
)

// Model holds the energy coefficients. All energies in joules, powers in
// watts.
type Model struct {
	CPUDynamicPerInst float64 // J per committed instruction
	CPUStaticPower    float64 // W, core + cache leakage and clocking
	NVMReadEnergy     float64 // J per 64B read
	NVMWriteEnergy    float64 // J per 64B write at ratio 1.0
	// WriteEnergyExponent: energy per write = NVMWriteEnergy · r^exponent.
	// Negative: slower (lower-power) writes cost slightly less energy.
	WriteEnergyExponent float64
	NVMStaticPower      float64 // W, background/peripheral

	// DRAM cache tier coefficients (hybrid hierarchy only; unused by
	// Compute, charged by ComputeTiered). Refresh power is the static cost
	// the hybrid pays for keeping a DRAM tier powered at all — the energy
	// side of the DRAM-vs-NVM tradeoff dimension.
	DRAMReadEnergy   float64 // J per 64B DRAM array read
	DRAMWriteEnergy  float64 // J per 64B DRAM array write
	DRAMRefreshPower float64 // W, refresh + peripheral background
}

// Default returns the calibrated model used across the experiments.
func Default() Model {
	return Model{
		CPUDynamicPerInst:   0.3e-9,
		CPUStaticPower:      1.0,
		NVMReadEnergy:       2e-9,
		NVMWriteEnergy:      30e-9,
		WriteEnergyExponent: -0.5,
		NVMStaticPower:      0.3,
		DRAMReadEnergy:      0.5e-9,
		DRAMWriteEnergy:     0.5e-9,
		DRAMRefreshPower:    0.15,
	}
}

// Validate checks coefficient sanity.
func (m Model) Validate() error {
	if m.CPUDynamicPerInst < 0 || m.CPUStaticPower < 0 || m.NVMReadEnergy < 0 ||
		m.NVMWriteEnergy < 0 || m.NVMStaticPower < 0 ||
		m.DRAMReadEnergy < 0 || m.DRAMWriteEnergy < 0 || m.DRAMRefreshPower < 0 {
		return fmt.Errorf("energy: negative coefficient in %+v", m)
	}
	return nil
}

// WriteEnergy returns the energy of one write at latency ratio r.
func (m Model) WriteEnergy(ratio float64) float64 {
	if ratio <= 0 {
		ratio = 1
	}
	return m.NVMWriteEnergy * math.Pow(ratio, m.WriteEnergyExponent)
}

// Breakdown itemizes where the joules went. The DRAM components are zero
// for NVM-only systems, so appending them to Total leaves those sums
// bit-identical (x + 0.0 == x for the non-negative components here).
type Breakdown struct {
	CPUDynamic float64
	CPUStatic  float64
	NVMRead    float64
	NVMWrite   float64
	NVMStatic  float64

	DRAMDynamic float64 // DRAM tier array accesses
	DRAMStatic  float64 // DRAM tier refresh/background
}

// Total returns the system energy.
func (b Breakdown) Total() float64 {
	return b.CPUDynamic + b.CPUStatic + b.NVMRead + b.NVMWrite + b.NVMStatic + b.DRAMDynamic + b.DRAMStatic
}

// Compute evaluates the model for a finished simulation window.
// instructions is the committed instruction count, seconds the simulated
// wall time, st the controller statistics for the window.
func (m Model) Compute(instructions uint64, seconds float64, st nvm.Stats) Breakdown {
	var b Breakdown
	b.CPUDynamic = float64(instructions) * m.CPUDynamicPerInst
	b.CPUStatic = seconds * m.CPUStaticPower
	b.NVMRead = float64(st.Reads) * m.NVMReadEnergy
	// Sum write energy in sorted-ratio order: float addition is not
	// associative, so ranging the map directly would let Go's randomized
	// iteration order perturb the total between identically-seeded runs.
	for _, ratio := range st.WritesByRatio.Ratios() {
		b.NVMWrite += float64(st.WritesByRatio[ratio]) * m.WriteEnergy(ratio)
	}
	b.NVMStatic = seconds * m.NVMStaticPower
	return b
}

// ComputeTiered evaluates the model for a window of a hybrid DRAM–NVM
// system: the NVM-only breakdown plus the DRAM tier's array-access energy
// (dramReads/dramWrites are tier-serviced access counts — the traffic the
// NVM never saw) and refresh power. Plain counts keep this package free of
// a dram dependency.
func (m Model) ComputeTiered(instructions uint64, seconds float64, st nvm.Stats, dramReads, dramWrites uint64) Breakdown {
	b := m.Compute(instructions, seconds, st)
	b.DRAMDynamic = float64(dramReads)*m.DRAMReadEnergy + float64(dramWrites)*m.DRAMWriteEnergy
	b.DRAMStatic = seconds * m.DRAMRefreshPower
	return b
}
