package config

// Grid values for the discretized configuration space. The paper reports
// 3,164 total configurations without giving the grids; with these grids the
// enumeration yields 4,060 (2,030 without wear quota) — same magnitude and
// structure (see DESIGN.md, "Known deviations").
var (
	// LatencyGrid holds the normalized write latency ratios explored for
	// both fast and slow writes (Tables 4/5/10 show multiples of 0.5).
	LatencyGrid = []float64{1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0}
	// BankThresholdGrid holds bank_aware_threshold values (Table 3: [1,4]).
	BankThresholdGrid = []int{1, 2, 3, 4}
	// EagerThresholdGrid holds eager_threshold values (Table 3: [4,32];
	// Tables 4/5/10 show powers of two).
	EagerThresholdGrid = []int{4, 8, 16, 32}
)

// SpaceOptions controls enumeration of the configuration space.
type SpaceOptions struct {
	// IncludeWearQuota duplicates every configuration with wear quota
	// enabled at WearQuotaTarget. MCT excludes wear quota from its learning
	// space (§4.4) and re-adds it as a fixup.
	IncludeWearQuota bool
	// WearQuotaTarget is the target lifetime (years) used for wear-quota
	// configurations; 0 defaults to 8 (the paper's default objective).
	WearQuotaTarget float64
}

// Enumerate returns every legal configuration under the grids above and the
// structural constraints of §3.3.1:
//
//   - parameters are only enumerated for enabled techniques;
//   - slow_latency ≥ fast_latency (equality occurs in the paper's own ideal
//     configurations, Table 5);
//   - fast_cancellation ⇒ slow_cancellation, and cancellation choices only
//     exist where they are meaningful.
//
// The result is deterministic: configurations are produced in a fixed order.
func Enumerate(opt SpaceOptions) []Config {
	target := opt.WearQuotaTarget
	if target == 0 {
		target = 8
	}
	var out []Config

	emit := func(c Config) {
		c = c.Canonical()
		out = append(out, c)
		if opt.IncludeWearQuota {
			wq := c
			wq.WearQuota = true
			wq.WearQuotaTarget = target
			out = append(out, wq)
		}
	}

	// Case 1: no slow-write technique. Only fast parameters matter.
	for _, fl := range LatencyGrid {
		for _, fc := range []bool{false, true} {
			emit(Config{FastLatency: fl, SlowLatency: fl, FastCancellation: fc, SlowCancellation: fc})
		}
	}

	// Cancellation combinations legal when slow writes exist:
	// (fast, slow) ∈ {(F,F), (F,T), (T,T)}.
	canc := [][2]bool{{false, false}, {false, true}, {true, true}}

	// Cases 2–4: bank-aware only, eager only, both.
	for _, useBank := range []bool{false, true} {
		for _, useEager := range []bool{false, true} {
			if !useBank && !useEager {
				continue
			}
			bankThrs := []int{0}
			if useBank {
				bankThrs = BankThresholdGrid
			}
			eagerThrs := []int{0}
			if useEager {
				eagerThrs = EagerThresholdGrid
			}
			for _, bt := range bankThrs {
				for _, et := range eagerThrs {
					for _, fl := range LatencyGrid {
						for _, sl := range LatencyGrid {
							if sl < fl {
								continue
							}
							for _, cc := range canc {
								emit(Config{
									BankAware:          useBank,
									BankAwareThreshold: bt,
									EagerWritebacks:    useEager,
									EagerThreshold:     et,
									FastLatency:        fl,
									SlowLatency:        sl,
									FastCancellation:   cc[0],
									SlowCancellation:   cc[1],
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Space is an immutable, indexed view of an enumerated configuration space.
type Space struct {
	configs []Config
}

// NewSpace enumerates the space under opt.
func NewSpace(opt SpaceOptions) *Space {
	return &Space{configs: Enumerate(opt)}
}

// Len returns the number of configurations in the space.
func (s *Space) Len() int { return len(s.configs) }

// At returns the configuration at index i.
func (s *Space) At(i int) Config { return s.configs[i] }

// Strided returns every stride-th index of the space, ascending from 0 — the
// configurations a strided brute-force sweep evaluates. A stride below 1
// means 1 (the full space).
func (s *Space) Strided(stride int) []int {
	stride = max(stride, 1)
	idx := make([]int, 0, (len(s.configs)+stride-1)/stride)
	for i := 0; i < len(s.configs); i += stride {
		idx = append(idx, i)
	}
	return idx
}

// Filter returns the indices of configurations satisfying keep, in order.
func (s *Space) Filter(keep func(Config) bool) []int {
	var idx []int
	for i, c := range s.configs {
		if keep(c) {
			idx = append(idx, i)
		}
	}
	return idx
}
