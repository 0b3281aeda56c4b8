// Package wearlevel implements Start-Gap wear leveling (Qureshi et al.,
// MICRO 2009), the scheme the paper assumes at bank granularity ("assume
// using effective wear-leveling scheme (e.g., Start-Gap) in bank
// granularity which can achieve 95% average lifetime", Table 9). The NVM
// model folds that assumption into a single efficiency constant; this
// package provides the actual algorithm so the 95% figure can be validated
// against the synthetic workloads (experiment "validate-wearlevel").
//
// Start-Gap adds one spare line (the gap) to a region of N lines and two
// registers. Every ψ writes the gap moves one slot (copying its neighbour),
// so logical lines slowly rotate through all physical slots and hot lines
// spread their wear. Address translation is pure register arithmetic:
//
//	PA = (LA + start) mod N ; if PA ≥ gap then PA+1
package wearlevel

// StartGap is one Start-Gap wear-leveling region (a bank, in the paper's
// assumption).
type StartGap struct {
	n     int // logical lines; physical lines = n+1
	psi   int // demand writes between gap movements
	gap   int // current gap position ∈ [0, n]
	start int

	sinceMove int
	wear      []uint64 // per-physical-line write counts (includes gap copies)
	moves     uint64
}

// New returns a Start-Gap leveler over n logical lines with gap-movement
// interval psi. It panics on non-positive arguments (programmer error).
func New(n, psi int) *StartGap {
	if n <= 0 || psi <= 0 {
		panic("wearlevel: non-positive region size or interval")
	}
	return &StartGap{n: n, psi: psi, gap: n, wear: make([]uint64, n+1)}
}

// GapMoves returns how many gap movements (overhead writes) occurred.
func (s *StartGap) GapMoves() uint64 { return s.moves }

// Map translates a logical line to its current physical line.
func (s *StartGap) Map(logical int) int {
	if logical < 0 || logical >= s.n {
		panic("wearlevel: logical line out of range")
	}
	pa := (logical + s.start) % s.n
	if pa >= s.gap {
		pa++
	}
	return pa
}

// OnWrite records a demand write to a logical line and advances the gap
// when the interval expires. It returns the physical line written and
// whether a gap movement (one extra write) happened.
func (s *StartGap) OnWrite(logical int) (physical int, moved bool) {
	physical = s.Map(logical)
	s.wear[physical]++
	s.sinceMove++
	if s.sinceMove >= s.psi {
		s.sinceMove = 0
		s.moveGap()
		moved = true
	}
	return physical, moved
}

// moveGap shifts the gap one slot toward 0, copying the neighbouring line
// into the gap (one overhead write). When the gap reaches slot 0 it wraps
// to the end and the start register advances — after n+1 full rotations
// every logical line has visited every physical slot.
func (s *StartGap) moveGap() {
	s.moves++
	if s.gap == 0 {
		s.gap = s.n
		s.start = (s.start + 1) % s.n
		// The wrap itself is bookkeeping; the copy happened on the way.
		return
	}
	// Copy line at gap-1 into the gap slot: that physical slot is written.
	s.wear[s.gap]++
	s.gap--
}

// MaxWear returns the most-written physical line's count.
func (s *StartGap) MaxWear() uint64 {
	var m uint64
	for _, w := range s.wear {
		if w > m {
			m = w
		}
	}
	return m
}

// Efficiency returns achieved lifetime relative to perfect leveling:
// average wear divided by maximum wear. 1.0 means perfectly even wear; the
// paper assumes ≈0.95 for this scheme.
func (s *StartGap) Efficiency() float64 {
	max := s.MaxWear()
	if max == 0 {
		return 1
	}
	var sum uint64
	for _, w := range s.wear {
		sum += w
	}
	avg := float64(sum) / float64(len(s.wear))
	return avg / float64(max)
}

// UnleveledEfficiency computes avg/max for a raw write histogram — the
// lifetime a bank would achieve with no wear leveling at all (for
// comparison in the validation experiment).
func UnleveledEfficiency(hist []uint64) float64 {
	var max, sum uint64
	for _, w := range hist {
		if w > max {
			max = w
		}
		sum += w
	}
	if max == 0 {
		return 1
	}
	return float64(sum) / float64(len(hist)) / float64(max)
}
