package sim

import (
	"fmt"

	"mct/internal/config"
	"mct/internal/rng"
	"mct/internal/trace"
)

// MultiOptions configures the 4-core system of §6.2.5: independent L1/L2
// per core (abstracted into the per-core trace), a shared 8 MB LLC and an
// 8 GB, 32-bank resistive main memory. The core count is the number of
// specs NewMultiMachine is given.
type MultiOptions struct {
	Options
}

// DefaultMultiOptions returns the paper's multi-core system.
func DefaultMultiOptions() MultiOptions {
	o := DefaultOptions()
	o.CacheBytes = 8 << 20
	o.Params.Banks = 32
	o.Params.LinesPerBank = 8 << 30 / 32 / 64
	// Shared-memory write-power budget scales with the larger module.
	o.Params.MaxConcurrentWrites = 8
	return MultiOptions{Options: o}
}

// MultiWarmupAccesses fills the multi-core system's 8 MB shared LLC, four
// times the single-core cache DefaultWarmupAccesses fills: the warmup of
// every multi-core reference run and MCT run.
const MultiWarmupAccesses = 4 * DefaultWarmupAccesses

// coreAddrStride separates per-core address spaces (16 GB apart).
const coreAddrStride = 1 << 34

// MultiMachine is a machine running a multi-programmed workload: one
// benchmark per core, private core clocks, shared LLC and shared NVM. Its
// own type keeps multi-core machines out of the single-core paths
// (SaveCheckpoint, mct.NewRuntime); core.MultiSystem adapts it to the MCT
// runtime.
type MultiMachine struct{ *Machine }

// NewMultiMachine builds a machine running one spec per core under cfg.
// Core i's generator is seeded from (opt.Seed, i) and its addresses start
// i·16 GB apart.
func NewMultiMachine(specs []trace.Spec, cfg config.Config, opt MultiOptions) (*MultiMachine, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: multi-core machine needs at least one spec")
	}
	gens := make([]*trace.Generator, len(specs))
	for i, spec := range specs {
		gens[i] = trace.NewGeneratorAt(spec, rng.DeriveRand(opt.Seed, int64(i)), uint64(i)*coreAddrStride)
	}
	m, err := newMachine(cfg, opt.Options, gens)
	if err != nil {
		return nil, err
	}
	return &MultiMachine{m}, nil
}

// Clone returns an independent deep copy of the multi-core machine.
func (m *MultiMachine) Clone() *MultiMachine { return &MultiMachine{m.Machine.Clone()} }
