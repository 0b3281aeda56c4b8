package api

import (
	"fmt"

	"mct/internal/energy"
	"mct/internal/nvm"
	"mct/internal/sim"
)

// EnergyBreakdown is the wire form of energy.Breakdown: where the joules of
// a run or window went.
type EnergyBreakdown struct {
	CPUDynamic  float64 `json:"cpu_dynamic_j"`
	CPUStatic   float64 `json:"cpu_static_j"`
	NVMRead     float64 `json:"nvm_read_j"`
	NVMWrite    float64 `json:"nvm_write_j"`
	NVMStatic   float64 `json:"nvm_static_j"`
	DRAMDynamic float64 `json:"dram_dynamic_j"`
	DRAMStatic  float64 `json:"dram_static_j"`
}

// RatioCount is one (write-latency ratio, write count) pair. The wire form
// replaces sim.Metrics' float-keyed map with a ratio-sorted slice so the
// encoding is legal JSON and byte-stable.
type RatioCount struct {
	Ratio float64 `json:"ratio"`
	Count uint64  `json:"count"`
}

// Metrics is the wire form of a measurement (mct.Metrics / sim.Metrics):
// the three tradeoff objectives plus the supporting window detail.
type Metrics struct {
	V int `json:"v"`

	Instructions uint64  `json:"instructions"`
	CPUCycles    float64 `json:"cpu_cycles"`
	IPC          float64 `json:"ipc"`

	Seconds       float64 `json:"seconds"`
	LifetimeYears float64 `json:"lifetime_years"`

	EnergyJ float64         `json:"energy_j"`
	Energy  EnergyBreakdown `json:"energy"`

	MemReads  uint64 `json:"mem_reads"`
	MemWrites uint64 `json:"mem_writes"`

	EagerWrites     uint64 `json:"eager_writes"`
	CancelledWrites uint64 `json:"cancelled_writes"`
	ForcedWrites    uint64 `json:"forced_writes"`
	SlowWrites      uint64 `json:"slow_writes"`
	FastWrites      uint64 `json:"fast_writes"`
	QueueFullStalls uint64 `json:"queue_full_stalls"`

	LLCHitRate float64 `json:"llc_hit_rate"`
	RowHitRate float64 `json:"row_hit_rate"`

	DRAMHits          uint64  `json:"dram_hits"`
	DRAMMisses        uint64  `json:"dram_misses"`
	DRAMWriteHits     uint64  `json:"dram_write_hits"`
	DRAMEagerAbsorbed uint64  `json:"dram_eager_absorbed"`
	DRAMPromotions    uint64  `json:"dram_promotions"`
	DRAMWritebacks    uint64  `json:"dram_writebacks"`
	DRAMHitRate       float64 `json:"dram_hit_rate"`

	WearByBankDelta []float64    `json:"wear_by_bank_delta,omitempty"`
	WritesByRatio   []RatioCount `json:"writes_by_ratio,omitempty"`
}

// FromMetrics converts a measurement (mct.Metrics / sim.Metrics) to its
// wire form. The float-keyed WritesByRatio map becomes a ratio-sorted
// slice, so conversion is deterministic.
func FromMetrics(m sim.Metrics) Metrics {
	out := Metrics{
		V:            Version,
		Instructions: m.Instructions,
		CPUCycles:    m.CPUCycles,
		IPC:          m.IPC,

		Seconds:       m.Seconds,
		LifetimeYears: m.LifetimeYears,

		EnergyJ: m.EnergyJ,
		Energy: EnergyBreakdown{
			CPUDynamic:  m.Energy.CPUDynamic,
			CPUStatic:   m.Energy.CPUStatic,
			NVMRead:     m.Energy.NVMRead,
			NVMWrite:    m.Energy.NVMWrite,
			NVMStatic:   m.Energy.NVMStatic,
			DRAMDynamic: m.Energy.DRAMDynamic,
			DRAMStatic:  m.Energy.DRAMStatic,
		},

		MemReads:  m.MemReads,
		MemWrites: m.MemWrites,

		EagerWrites:     m.EagerWrites,
		CancelledWrites: m.CancelledWrites,
		ForcedWrites:    m.ForcedWrites,
		SlowWrites:      m.SlowWrites,
		FastWrites:      m.FastWrites,
		QueueFullStalls: m.QueueFullStalls,

		LLCHitRate: m.LLCHitRate,
		RowHitRate: m.RowHitRate,

		DRAMHits:          m.DRAMHits,
		DRAMMisses:        m.DRAMMisses,
		DRAMWriteHits:     m.DRAMWriteHits,
		DRAMEagerAbsorbed: m.DRAMEagerAbsorbed,
		DRAMPromotions:    m.DRAMPromotions,
		DRAMWritebacks:    m.DRAMWritebacks,
		DRAMHitRate:       m.DRAMHitRate,
	}
	if len(m.WearByBankDelta) > 0 {
		out.WearByBankDelta = append([]float64(nil), m.WearByBankDelta...)
	}
	for _, r := range m.WritesByRatio.Ratios() {
		out.WritesByRatio = append(out.WritesByRatio, RatioCount{Ratio: r, Count: m.WritesByRatio[r]})
	}
	return out
}

// Metrics converts the wire form back to the simulator's measurement type.
func (m Metrics) Metrics() (sim.Metrics, error) {
	if m.V != Version {
		return sim.Metrics{}, fmt.Errorf("api: metrics has schema version %d; this decoder reads version %d", m.V, Version)
	}
	out := sim.Metrics{
		Instructions: m.Instructions,
		CPUCycles:    m.CPUCycles,
		IPC:          m.IPC,

		Seconds:       m.Seconds,
		LifetimeYears: m.LifetimeYears,

		EnergyJ: m.EnergyJ,
		Energy: energy.Breakdown{
			CPUDynamic:  m.Energy.CPUDynamic,
			CPUStatic:   m.Energy.CPUStatic,
			NVMRead:     m.Energy.NVMRead,
			NVMWrite:    m.Energy.NVMWrite,
			NVMStatic:   m.Energy.NVMStatic,
			DRAMDynamic: m.Energy.DRAMDynamic,
			DRAMStatic:  m.Energy.DRAMStatic,
		},

		MemReads:  m.MemReads,
		MemWrites: m.MemWrites,

		EagerWrites:     m.EagerWrites,
		CancelledWrites: m.CancelledWrites,
		ForcedWrites:    m.ForcedWrites,
		SlowWrites:      m.SlowWrites,
		FastWrites:      m.FastWrites,
		QueueFullStalls: m.QueueFullStalls,

		LLCHitRate: m.LLCHitRate,
		RowHitRate: m.RowHitRate,

		DRAMHits:          m.DRAMHits,
		DRAMMisses:        m.DRAMMisses,
		DRAMWriteHits:     m.DRAMWriteHits,
		DRAMEagerAbsorbed: m.DRAMEagerAbsorbed,
		DRAMPromotions:    m.DRAMPromotions,
		DRAMWritebacks:    m.DRAMWritebacks,
		DRAMHitRate:       m.DRAMHitRate,
	}
	if len(m.WearByBankDelta) > 0 {
		out.WearByBankDelta = append([]float64(nil), m.WearByBankDelta...)
	}
	if len(m.WritesByRatio) > 0 {
		out.WritesByRatio = make(nvm.RatioCounts, len(m.WritesByRatio))
		for i, rc := range m.WritesByRatio {
			if i > 0 && rc.Ratio <= m.WritesByRatio[i-1].Ratio {
				return sim.Metrics{}, fmt.Errorf("api: metrics writes_by_ratio not strictly ascending at %g", rc.Ratio)
			}
			out.WritesByRatio[rc.Ratio] = rc.Count
		}
	}
	return out, nil
}

// DecodeMetrics strictly decodes a Metrics document.
func DecodeMetrics(data []byte) (Metrics, error) {
	var m Metrics
	if err := decodeStrict(data, &m, "metrics"); err != nil {
		return Metrics{}, err
	}
	return m, nil
}
