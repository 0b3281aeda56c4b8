// Package trace generates deterministic synthetic memory-access traces that
// stand in for the paper's SPEC CPU2006 / SPLASH-2 / microbenchmark
// workloads (§6.1). A trace is the post-L2 access stream seen by the last
// level cache: each event carries the number of instructions executed since
// the previous access, a byte address, and a load/store flag.
//
// Each benchmark is described by a Spec — a cyclic schedule of phases, each
// with its own access intensity (MPKI), write fraction, locality structure
// (hot-region fraction and sizes), access pattern, and burst shape. The
// generators are seeded and fully deterministic, so every NVM configuration
// of a benchmark replays the identical trace, as in trace-driven simulation.
package trace

import (
	"fmt"
	"math"
	"sort"

	"mct/internal/rng"
)

// LineBytes is the cache-line size; all addresses are line-aligned when
// consumed by the cache model.
const LineBytes = 64

// Access is one LLC-level memory access. The field order packs it into
// 16 bytes (24 with InstGap first), which sizes every batch buffer and the
// measurement window a Prepared workload keeps.
type Access struct {
	// Addr is the byte address of the access.
	Addr uint64
	// InstGap is the number of instructions executed since the previous
	// access (≥1).
	InstGap uint32
	// Write marks a store (which dirties the line in the LLC).
	Write bool
}

// PatternKind selects how cold-region addresses advance.
type PatternKind uint8

const (
	// Sequential walks the cold region line by line (streaming).
	Sequential PatternKind = iota
	// Strided walks the cold region with a fixed stride.
	Strided
	// Random draws uniform addresses from the cold region.
	Random
)

// String implements fmt.Stringer.
func (p PatternKind) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Strided:
		return "strided"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("PatternKind(%d)", uint8(p))
	}
}

// Phase is one segment of a benchmark's cyclic phase schedule.
type Phase struct {
	// Insts is the instruction length of the phase within one cycle of the
	// schedule.
	Insts uint64
	// MPKI is the mean number of LLC accesses per 1000 instructions.
	MPKI float64
	// WriteFrac is the store fraction of accesses.
	WriteFrac float64
	// HotFrac is the fraction of accesses that target the hot region
	// (uniformly at random within HotBytes); the rest target the cold
	// region under Pattern.
	HotFrac  float64
	HotBytes uint64
	// ColdBytes is the cold-region footprint the pattern walks through.
	ColdBytes uint64
	Pattern   PatternKind
	// Stride is the byte stride for the Strided pattern (≥ LineBytes).
	Stride uint64
	// BurstLen, when nonzero, alternates bursts of BurstLen accesses at
	// full intensity with quiet spans of BurstLen accesses whose
	// instruction gaps are stretched by IdleMul.
	BurstLen uint64
	// IdleMul stretches gaps in quiet spans (≥1; 0 means no bursts).
	IdleMul float64
}

// Spec is a complete benchmark description.
type Spec struct {
	Name string
	// Phases cycle in order; a single-phase spec is steady-state.
	Phases []Phase
}

// Generator produces the access stream for a Spec. It is not safe for
// concurrent use.
type Generator struct {
	spec Spec
	rnd  *rng.Rand

	phaseIdx   int
	phaseInsts uint64 // instructions consumed within the current phase
	coldCursor uint64
	burstPos   uint64
	// addrBase offsets the whole address space (distinct per core in
	// multi-program runs).
	addrBase uint64

	// gapForPhase/meanGap memoize the phase's mean instruction gap
	// (1000/MPKI, floored at 1) so the hot generation loop pays the division
	// once per phase instead of once per access. Derived state: recomputed
	// on demand, deliberately absent from GeneratorState (a rebuilt
	// generator re-derives it on its first access).
	gapForPhase int
	meanGap     float64
}

// NewGenerator returns a deterministic generator for spec drawing from the
// injected clonable stream r (construct it with rng.NewRand so the trace is
// a pure function of the experiment seed and the generator stays
// snapshotable).
func NewGenerator(spec Spec, r *rng.Rand) *Generator {
	if len(spec.Phases) == 0 {
		panic("trace: spec has no phases")
	}
	if r == nil {
		panic("trace: nil rng; inject a seeded *rng.Rand (rng.NewRand)")
	}
	return &Generator{spec: spec, rnd: r, gapForPhase: -1}
}

// NewGeneratorAt is NewGenerator with the address space offset by base
// (used to give each core of a multi-program workload a private footprint).
func NewGeneratorAt(spec Spec, r *rng.Rand, base uint64) *Generator {
	g := NewGenerator(spec, r)
	g.addrBase = base
	return g
}

// Spec returns the generator's benchmark spec.
func (g *Generator) Spec() Spec { return g.spec }

// Clone returns an independent deep copy of the generator: both continue
// the identical access stream from the current position, and advancing one
// never perturbs the other. The Spec is shared (it is read-only by
// contract).
func (g *Generator) Clone() *Generator {
	n := *g
	n.rnd = g.rnd.Clone()
	return &n
}

// GeneratorState is the complete serializable state of a Generator, used by
// machine checkpoints. The Spec rides along so a generator can be rebuilt
// without consulting the benchmark registry (custom specs included).
type GeneratorState struct {
	Spec       Spec
	RNG        uint64
	PhaseIdx   int
	PhaseInsts uint64
	ColdCursor uint64
	BurstPos   uint64
	AddrBase   uint64
}

// Snapshot captures the generator's complete state.
//
// gapForPhase and meanGap are not captured: they are a derived memo that
// Next recomputes on first use (FromState builds with gapForPhase=-1).
func (g *Generator) Snapshot() GeneratorState {
	return GeneratorState{
		Spec:       g.spec,
		RNG:        g.rnd.State(),
		PhaseIdx:   g.phaseIdx,
		PhaseInsts: g.phaseInsts,
		ColdCursor: g.coldCursor,
		BurstPos:   g.burstPos,
		AddrBase:   g.addrBase,
	}
}

// FromState rebuilds a generator from a state captured with Snapshot; the
// rebuilt generator continues the identical stream. The state usually
// comes from a checkpoint file, so it is validated rather than trusted: a
// phase index outside the spec would panic on the first Next, and a
// non-positive MPKI or a fraction outside [0,1] would yield garbage gaps.
// Region sizes need no check: a uint64 byte count over LineBytes is at
// most 2^58 lines, so Next's int64 line counts cannot overflow.
func FromState(st GeneratorState) (*Generator, error) {
	if err := st.Spec.validate(); err != nil {
		return nil, err
	}
	if st.PhaseIdx < 0 || st.PhaseIdx >= len(st.Spec.Phases) {
		return nil, fmt.Errorf("trace: phase index %d outside spec %q's %d phases", st.PhaseIdx, st.Spec.Name, len(st.Spec.Phases))
	}
	g := NewGeneratorAt(st.Spec, rng.NewRand(0), st.AddrBase)
	g.rnd.SetState(st.RNG)
	g.phaseIdx = st.PhaseIdx
	g.phaseInsts = st.PhaseInsts
	g.coldCursor = st.ColdCursor
	g.burstPos = st.BurstPos
	return g, nil
}

// validate checks the phase parameters Next divides by or compares
// against: at least one phase, a finite positive MPKI, and write and hot
// fractions in [0,1].
func (s Spec) validate() error {
	if len(s.Phases) == 0 {
		return fmt.Errorf("trace: spec %q has no phases", s.Name)
	}
	for i, ph := range s.Phases {
		if !(ph.MPKI > 0) || math.IsInf(ph.MPKI, 0) {
			return fmt.Errorf("trace: spec %q phase %d: MPKI %v is not finite and positive", s.Name, i, ph.MPKI)
		}
		if !(ph.WriteFrac >= 0 && ph.WriteFrac <= 1) || !(ph.HotFrac >= 0 && ph.HotFrac <= 1) {
			return fmt.Errorf("trace: spec %q phase %d: WriteFrac %v and HotFrac %v must lie in [0,1]", s.Name, i, ph.WriteFrac, ph.HotFrac)
		}
	}
	return nil
}

const (
	hotRegionBase  = 0x1000_0000
	coldRegionBase = 0x8000_0000
)

// Next produces the next access in the stream. Callers that consume whole
// batches should prefer Fill, which amortizes the call overhead; the two
// produce the identical stream (Fill is a loop over the same core).
func (g *Generator) Next() Access {
	ph := &g.spec.Phases[g.phaseIdx]

	// Mean instructions per access in this phase (memoized per phase).
	if g.gapForPhase != g.phaseIdx {
		mg := 1000.0 / ph.MPKI
		if mg < 1 {
			mg = 1
		}
		g.meanGap = mg
		g.gapForPhase = g.phaseIdx
	}
	meanGap := g.meanGap
	// Burst shaping: quiet spans stretch the gap.
	gapMul := 1.0
	if ph.BurstLen > 0 && ph.IdleMul > 1 {
		if (g.burstPos/ph.BurstLen)%2 == 1 {
			gapMul = ph.IdleMul
		}
		g.burstPos++
	}
	// Geometric-ish gap: exponential with the phase mean, floored at 1.
	gap := g.rnd.ExpFloat64() * meanGap * gapMul
	if gap < 1 {
		gap = 1
	}
	if gap > 1e6 {
		gap = 1e6
	}
	instGap := uint32(gap)

	var addr uint64
	if ph.HotFrac > 0 && g.rnd.Float64() < ph.HotFrac {
		hot := ph.HotBytes
		if hot < LineBytes {
			hot = LineBytes
		}
		addr = hotRegionBase + uint64(g.rnd.Int63n(int64(hot/LineBytes)))*LineBytes //mctlint:ignore cyclecast region bytes / LineBytes ≤ 2^58, and Int63n is non-negative; both conversions are lossless
	} else {
		cold := ph.ColdBytes
		if cold < LineBytes {
			cold = LineBytes
		}
		switch ph.Pattern {
		case Sequential:
			addr = coldRegionBase + g.coldCursor%cold
			g.coldCursor += LineBytes
		case Strided:
			stride := ph.Stride
			if stride < LineBytes {
				stride = LineBytes
			}
			addr = coldRegionBase + g.coldCursor%cold
			g.coldCursor += stride
		case Random:
			addr = coldRegionBase + uint64(g.rnd.Int63n(int64(cold/LineBytes)))*LineBytes //mctlint:ignore cyclecast region bytes / LineBytes ≤ 2^58, and Int63n is non-negative; both conversions are lossless
		}
	}

	write := g.rnd.Float64() < ph.WriteFrac

	// Advance the phase schedule.
	g.phaseInsts += uint64(instGap)
	if g.phaseInsts >= ph.Insts {
		g.phaseInsts = 0
		g.phaseIdx = (g.phaseIdx + 1) % len(g.spec.Phases)
		g.burstPos = 0
	}

	return Access{InstGap: instGap, Addr: g.addrBase + addr&^uint64(LineBytes-1), Write: write}
}

// Fill writes the next len(dst) accesses of the stream into dst and
// returns len(dst) (a generator never exhausts). The
// stream is exactly the one repeated Next calls produce, at any batch size —
// the batch-size-invariance contract the streaming simulator relies on.
// It is the batched inner loop of streaming simulation, held to zero
// allocations by TestFillPhaseSwitchZeroAllocs.
func (g *Generator) Fill(dst []Access) int {
	for i := range dst {
		dst[i] = g.Next()
	}
	return len(dst)
}

// Collect materializes the next n accesses of g into a slice. It is a thin
// wrapper over the streaming path (one Fill into a fresh slice); prefer
// Fill with a reusable buffer when the trace does not need to be held whole.
func Collect(g *Generator, n int) []Access {
	out := make([]Access, n)
	g.Fill(out)
	return out
}

// Names returns the registered benchmark names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ByName returns the Spec for a registered benchmark.
func ByName(name string) (Spec, error) {
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("trace: unknown benchmark %q (have %v)", name, Names())
	}
	return s, nil
}

// MixNames returns the names of the multi-program mixes of Table 11.
func MixNames() []string {
	names := make([]string, 0, len(mixes))
	for n := range mixes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MixByName returns the four benchmark specs of a Table 11 mix.
func MixByName(name string) ([]Spec, error) {
	members, ok := mixes[name]
	if !ok {
		return nil, fmt.Errorf("trace: unknown mix %q (have %v)", name, MixNames())
	}
	specs := make([]Spec, len(members))
	for i, m := range members {
		s, err := ByName(m)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}
