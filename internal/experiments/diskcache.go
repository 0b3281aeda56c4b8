package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mct/internal/sim"
)

// Sweeps are expensive (thousands of simulator runs), and separate mctbench
// invocations cannot share the in-process cache. Setting MCT_SWEEP_CACHE to
// a directory enables a JSON disk cache keyed by the sweep parameters.
// Cached entries retain the headline metrics used by the experiment drivers
// (IPC, lifetime, energy, traffic counters) — not the full per-bank wear
// vectors.
const cacheEnv = "MCT_SWEEP_CACHE"

type metricDTO struct {
	Instructions    uint64
	IPC             float64
	LifetimeYears   float64
	EnergyJ         float64
	Seconds         float64
	MemReads        uint64
	MemWrites       uint64
	EagerWrites     uint64
	CancelledWrites uint64
	ForcedWrites    uint64
	SlowWrites      uint64
	FastWrites      uint64

	// DRAM tier counters; zero for NVM-only sweeps (their cache files
	// carry an Options digest without a DRAM tier, so the two never mix).
	DRAMHits          uint64
	DRAMMisses        uint64
	DRAMWriteHits     uint64
	DRAMEagerAbsorbed uint64
	DRAMPromotions    uint64
	DRAMWritebacks    uint64
	DRAMHitRate       float64
}

func toDTO(m sim.Metrics) metricDTO {
	return metricDTO{
		Instructions:    m.Instructions,
		IPC:             m.IPC,
		LifetimeYears:   m.LifetimeYears,
		EnergyJ:         m.EnergyJ,
		Seconds:         m.Seconds,
		MemReads:        m.MemReads,
		MemWrites:       m.MemWrites,
		EagerWrites:     m.EagerWrites,
		CancelledWrites: m.CancelledWrites,
		ForcedWrites:    m.ForcedWrites,
		SlowWrites:      m.SlowWrites,
		FastWrites:      m.FastWrites,

		DRAMHits:          m.DRAMHits,
		DRAMMisses:        m.DRAMMisses,
		DRAMWriteHits:     m.DRAMWriteHits,
		DRAMEagerAbsorbed: m.DRAMEagerAbsorbed,
		DRAMPromotions:    m.DRAMPromotions,
		DRAMWritebacks:    m.DRAMWritebacks,
		DRAMHitRate:       m.DRAMHitRate,
	}
}

func fromDTO(d metricDTO) sim.Metrics {
	return sim.Metrics{
		Instructions:    d.Instructions,
		IPC:             d.IPC,
		LifetimeYears:   d.LifetimeYears,
		EnergyJ:         d.EnergyJ,
		Seconds:         d.Seconds,
		MemReads:        d.MemReads,
		MemWrites:       d.MemWrites,
		EagerWrites:     d.EagerWrites,
		CancelledWrites: d.CancelledWrites,
		ForcedWrites:    d.ForcedWrites,
		SlowWrites:      d.SlowWrites,
		FastWrites:      d.FastWrites,

		DRAMHits:          d.DRAMHits,
		DRAMMisses:        d.DRAMMisses,
		DRAMWriteHits:     d.DRAMWriteHits,
		DRAMEagerAbsorbed: d.DRAMEagerAbsorbed,
		DRAMPromotions:    d.DRAMPromotions,
		DRAMWritebacks:    d.DRAMWritebacks,
		DRAMHitRate:       d.DRAMHitRate,
	}
}

type sweepDTO struct {
	Benchmark string
	SpaceLen  int
	Indices   []int
	Metrics   []metricDTO
	Baseline  metricDTO
	Default   metricDTO
}

func (k sweepKey) filename() string {
	// The o%016x component is the sim.Options digest: sweeps of different
	// simulated systems must land in different cache files (entries from
	// before this component existed are simply never matched again).
	return fmt.Sprintf("sweep_%s_a%d_s%d_wq%t_t%g_seed%d_o%016x.json",
		k.bench, k.accesses, k.stride, k.wq, k.target, k.seed, k.sim)
}

// loadSweepFromDisk returns a cached sweep or nil. spaceLen guards against
// stale caches from older space enumerations.
func loadSweepFromDisk(k sweepKey, spaceLen int) *sweepDTO {
	dir := os.Getenv(cacheEnv)
	if dir == "" {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(dir, k.filename()))
	if err != nil {
		return nil
	}
	var dto sweepDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil
	}
	if dto.SpaceLen != spaceLen || len(dto.Indices) != len(dto.Metrics) {
		return nil
	}
	return &dto
}

// storeSweepToDisk persists a sweep; failures are silent (the cache is an
// optimization, never a correctness dependency).
func storeSweepToDisk(k sweepKey, s *Sweep) {
	dir := os.Getenv(cacheEnv)
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	dto := sweepDTO{
		Benchmark: s.Benchmark,
		SpaceLen:  s.Space.Len(),
		Indices:   s.Indices,
		Baseline:  toDTO(s.Baseline),
		Default:   toDTO(s.Default),
	}
	for _, m := range s.Metrics {
		dto.Metrics = append(dto.Metrics, toDTO(m))
	}
	data, err := json.Marshal(&dto)
	if err != nil {
		return
	}
	tmp := filepath.Join(dir, k.filename()+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	if err := os.Rename(tmp, filepath.Join(dir, k.filename())); err != nil {
		os.Remove(tmp) //mctlint:ignore uncheckederr best-effort cleanup: the disk cache is an optimization, never a correctness dependency
	}
}
