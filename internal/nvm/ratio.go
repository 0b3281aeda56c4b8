package nvm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// RatioCounts counts issued writes by latency ratio (pulse length over
// the fast write latency). For gob it encodes itself as its (ratio, count)
// pairs in ascending ratio order, so that one value always has one
// encoding: gob writes a plain map in iteration order. A nil value stays
// nil through a gob round trip and an empty one stays empty.
type RatioCounts map[float64]uint64

// Ratios returns the ratios in ascending order. Sums over the counts
// follow it, since float addition is not associative and map iteration
// order is random.
func (r RatioCounts) Ratios() []float64 {
	ratios := make([]float64, 0, len(r))
	for ratio := range r {
		ratios = append(ratios, ratio)
	}
	slices.Sort(ratios)
	return ratios
}

// ratioPairBytes is the encoded size of one (ratio, count) pair: the
// ratio's IEEE 754 bits, then the count, both big-endian.
const ratioPairBytes = 16

// GobEncode writes the pairs in ascending ratio order.
func (r RatioCounts) GobEncode() ([]byte, error) {
	b := make([]byte, 0, len(r)*ratioPairBytes)
	for _, ratio := range r.Ratios() {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(ratio))
		b = binary.BigEndian.AppendUint64(b, r[ratio])
	}
	return b, nil
}

// GobDecode reads what GobEncode writes. It rejects a truncated pair and a
// ratio that is NaN or not above the one before it.
func (r *RatioCounts) GobDecode(b []byte) error {
	if len(b)%ratioPairBytes != 0 {
		return fmt.Errorf("nvm: writes by ratio: %d bytes do not hold whole (ratio, count) pairs", len(b))
	}
	m := make(RatioCounts, len(b)/ratioPairBytes)
	prev := math.Inf(-1)
	for ; len(b) > 0; b = b[ratioPairBytes:] {
		ratio := math.Float64frombits(binary.BigEndian.Uint64(b))
		if !(ratio > prev) {
			return fmt.Errorf("nvm: writes by ratio: ratio %v does not ascend from %v", ratio, prev)
		}
		m[ratio] = binary.BigEndian.Uint64(b[8:])
		prev = ratio
	}
	*r = m
	return nil
}
