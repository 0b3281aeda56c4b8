// Package sampling selects which configurations MCT exercises during its
// sampling period and how they are scheduled. It implements the two
// sample-set strategies compared in Figure 4b — uniform random sampling and
// feature-based sampling guided by the lasso-selected primary features
// (fast_latency, slow_latency, cancellation) — and the cyclic fine-grained
// schedule of §5.2 that interleaves all samples within each memory burst.
package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mct/internal/config"
)

// Plan is an ordered set of sample configurations, as indices into a
// configuration space.
type Plan struct {
	Indices []int
}

// Len returns the number of samples.
func (p Plan) Len() int { return len(p.Indices) }

// Random draws n distinct configuration indices uniformly from the space.
// The caller injects the random source (internal/rng) so plans are a pure
// function of the experiment seed.
func Random(space *config.Space, n int, rng *rand.Rand) Plan {
	if n > space.Len() {
		n = space.Len()
	}
	perm := rng.Perm(space.Len())
	idx := append([]int(nil), perm[:n]...)
	sort.Ints(idx)
	return Plan{Indices: idx}
}

// FeatureBased builds the feature-guided sample set of §4.4: one sample per
// combination of the three primary features — fast_latency, slow_latency
// and cancellation level — with the remaining knobs (bank_aware,
// eager_writebacks) chosen randomly among configurations matching that
// combination. The paper obtains 77 samples this way; the exact count
// depends on which combinations exist in the space. The caller injects the
// random source (internal/rng).
func FeatureBased(space *config.Space, rng *rand.Rand) Plan {
	type key struct {
		fast, slow float64
		canc       float64
	}
	groups := map[key][]int{}
	for i := 0; i < space.Len(); i++ {
		c := space.At(i).Compressed() // [bank, eager, fast, slow, canc]
		k := key{fast: c[2], slow: c[3], canc: c[4]}
		groups[k] = append(groups[k], i)
	}

	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		if ka.fast < kb.fast {
			return true
		}
		if ka.fast > kb.fast {
			return false
		}
		if ka.slow < kb.slow {
			return true
		}
		if ka.slow > kb.slow {
			return false
		}
		return ka.canc < kb.canc
	})

	idx := make([]int, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		idx = append(idx, g[rng.Intn(len(g))])
	}
	sort.Ints(idx)
	return Plan{Indices: idx}
}

// Schedule is the cyclic fine-grained sampling schedule of §5.2: each
// sample configuration runs for UnitInsts instructions per round, looping
// over all samples for Rounds rounds, so every sample experiences the full
// spread of bursty memory behaviour.
type Schedule struct {
	UnitInsts uint64
	Rounds    int
}

// BuildSchedule divides a total sampling budget of totalInsts instructions
// across n samples in units of unitInsts: Rounds = totalInsts/(n·unitInsts),
// floored at one round.
func BuildSchedule(totalInsts, unitInsts uint64, n int) (Schedule, error) {
	if n <= 0 {
		return Schedule{}, fmt.Errorf("sampling: no samples to schedule")
	}
	if unitInsts == 0 || totalInsts == 0 {
		return Schedule{}, fmt.Errorf("sampling: zero budget or unit")
	}
	q := totalInsts / (uint64(n) * unitInsts)
	if q > math.MaxInt32 {
		q = math.MaxInt32
	}
	rounds := int(q) //mctlint:ignore cyclecast clamped to MaxInt32 above
	if rounds < 1 {
		rounds = 1
	}
	return Schedule{UnitInsts: unitInsts, Rounds: rounds}, nil
}
