// Package rng is the single blessed constructor for deterministic random
// sources. Library code must never draw from math/rand's global source and
// must never mint its own *rand.Rand from rand.NewSource — the seeded
// determinism and golden tests fail on either — because an unseeded or
// ad-hoc stream makes experiment results irreproducible. Instead, every
// component takes an injected *rand.Rand, and the streams are created here,
// derived from the experiment seed flags, so all randomness in a run is
// auditable from one chokepoint.
//
// The underlying source is an in-repo splitmix64 generator rather than the
// stdlib source. Its entire state is one uint64, which makes PRNG state
// capturable: components that must be snapshotted (trace generators,
// machines) hold a *Rand, whose Clone/State/SetState expose the stream
// position for deep copies and checkpoints. Stdlib sources keep their state
// unexported, which would make a cloned simulator silently share (or lose)
// its random stream.
package rng

import "math/rand"

// splitmix64 constants (Steele, Lea & Flood, "Fast Splittable Pseudorandom
// Number Generators", OOPSLA 2014; same parameters as Vigna's reference
// implementation).
const (
	splitmixGamma = 0x9e3779b97f4a7c15
	splitmixMulA  = 0xbf58476d1ce4e5b9
	splitmixMulB  = 0x94d049bb133111eb
)

// Source is a splitmix64 pseudo-random source implementing
// math/rand.Source64. Unlike the stdlib source, its complete state is a
// single exported-able uint64, so a stream can be captured, cloned, and
// restored exactly. It is not safe for concurrent use.
type Source struct {
	state uint64
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the source to the stream of seed.
func (s *Source) Seed(seed int64) {
	s.state = uint64(seed) //mctlint:ignore cyclecast seeding reinterprets the bit pattern; negative seeds are distinct valid streams
}

// Uint64 advances the stream and returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += splitmixGamma
	z := s.state
	z = (z ^ (z >> 30)) * splitmixMulA
	z = (z ^ (z >> 27)) * splitmixMulB
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1) //mctlint:ignore cyclecast top bit cleared by the shift, so the conversion is lossless and non-negative
}

// State returns the complete current state of the stream.
func (s *Source) State() uint64 { return s.state }

// SetState restores the stream to a state captured with State.
func (s *Source) SetState(state uint64) { s.state = state }

// Clone returns an independent copy at the same stream position.
func (s *Source) Clone() *Source {
	c := *s
	return &c
}

// Rand couples a *rand.Rand with the clonable Source feeding it, so the
// stream position survives Clone and checkpoint round trips. The embedded
// *rand.Rand provides the full stdlib distribution API (ExpFloat64,
// Float64, Int63n, ...); all of those methods are stateless beyond the
// source, so capturing the Source captures the stream.
//
// The one exception in the stdlib API is Rand.Read, which buffers partial
// draws internally; do not use Read on a Rand that will be cloned (nothing
// in this tree does).
type Rand struct {
	*rand.Rand
	src *Source
}

// NewRand returns a clonable deterministic stream seeded with seed.
func NewRand(seed int64) *Rand {
	return fromSource(NewSource(seed))
}

// DeriveRand is Derive returning the clonable wrapper.
func DeriveRand(seed, offset int64) *Rand {
	return NewRand(seed + offset)
}

func fromSource(src *Source) *Rand {
	return &Rand{
		Rand: rand.New(src), // blessed constructor; the source is the in-repo clonable splitmix64
		src:  src,
	}
}

// Clone returns an independent stream at the same position: the clone and
// the original produce the identical remaining sequence, and draws on one
// never affect the other.
//
// The embedded *rand.Rand is not copied: fromSource rebuilds it around the
// cloned source.
func (r *Rand) Clone() *Rand {
	return fromSource(r.src.Clone())
}

// State returns the complete PRNG state for checkpointing.
func (r *Rand) State() uint64 { return r.src.State() }

// SetState restores the stream to a state captured with State.
func (r *Rand) SetState(state uint64) { r.src.SetState(state) }

// New returns a deterministic source seeded with seed. This is the only
// place in the tree (outside tests) allowed to construct a rand source.
// Callers that need to snapshot the stream should use NewRand instead.
func New(seed int64) *rand.Rand {
	return NewRand(seed).Rand
}

// Derive returns an independent deterministic stream for a named sub-use of
// an experiment seed (e.g. per-trial or per-variant streams). Distinct
// offsets yield decorrelated streams while keeping the whole run a pure
// function of the base seed.
func Derive(seed, offset int64) *rand.Rand {
	return New(seed + offset)
}
