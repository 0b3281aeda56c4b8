// Package hierarchy defines the composable memory-hierarchy seam of the
// simulator: the contracts a tier must satisfy to slot into the machine's
// ordered pipeline. The machine no longer hard-codes "an LLC and an NVM
// controller" — it drives a front (CPU-coupled) cache tier and a chain of
// memory-side tiers, each of which forwards its misses and evictions to
// the tier below. The stock two-tier system wires the LLC directly onto
// the NVM controller; a hybrid system interposes the DRAM cache tier
// (internal/dram); future scenarios (software wear-leveling tiers,
// multi-tenant partitions) wrap the chain the same way.
//
// Contracts every tier implementation must honour (see DESIGN.md,
// "Memory hierarchy"):
//
//   - Determinism: identical call sequences produce identical state and
//     return values; no wall-clock, no map iteration on any result path.
//   - Hot path: Read/Write/EagerWrite/Drain run once per LLC miss in the
//     streaming inner loop and must not allocate at steady state
//     (TestBatchedStepLoopZeroAllocs and its tiered twin enforce this).
//   - Snapshot: tiers carry Clone (deep copy, shares nothing mutable)
//     and a gob-serializable snapshot form so machines embedding them
//     keep the Clone/Snapshot/Restore contract.
//   - Time: all times are in memory-controller cycles; methods taking a
//     `now` may return completion times in the future, and a Write may
//     return an acceptance time later than `now` to signal backpressure
//     that fully stalls the core.
package hierarchy

// Tier is a named component of the memory hierarchy. Names are stable
// lowercase identifiers ("llc", "dram", "nvm") used in diagnostics and as
// obs metric-family prefixes.
type Tier interface {
	Name() string
}

// Mem is the memory-side tier contract: everything below the front cache
// speaks this interface. It is exactly the request surface the LLC layer
// generates — demand fills, dirty writebacks, opportunistic eager
// writebacks — plus the end-of-run drain. A caching Mem tier (the DRAM
// cache) absorbs what it can and forwards the rest to the tier below; the
// NVM controller is the terminal implementation.
type Mem interface {
	Tier

	// Read services a demand fill at time now and returns the cycle at
	// which the data has been delivered.
	Read(addr, now uint64) uint64

	// Write accepts a dirty writeback at time now and returns the cycle
	// at which it was accepted; a return later than now signals queue
	// backpressure (the core stalls until then).
	Write(addr, now uint64) uint64

	// EagerWrite offers an opportunistic (eager mellow) writeback; false
	// means the tier cannot take it now and the caller keeps the line
	// dirty.
	EagerWrite(addr, now uint64) bool

	// EagerSpace reports whether an EagerWrite could currently be
	// accepted; callers must check it before harvesting a victim, since
	// harvesting marks the line clean.
	EagerSpace() bool

	// Drain retires all buffered work (queued writes, dirty cached
	// lines) so its wear and energy are charged to the run, returning
	// the final time.
	Drain(now uint64) uint64
}
