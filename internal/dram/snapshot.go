// Snapshot support for the DRAM cache tier: an exported, serializable
// state for machine checkpoints (in-memory deep copies use Clone).
package dram

import (
	"fmt"

	"mct/internal/hierarchy"
)

// LineState is the serializable state of one cached line.
type LineState struct {
	Tag   uint64
	Valid bool
	Dirty bool
}

// HotEntry is one serialized page-touch counter slot.
type HotEntry struct {
	Page  uint64
	Count uint32
	Epoch uint32
}

// Snapshot is the complete serializable state of a DRAM cache tier. Lines
// are stored set-major in MRU..LRU order, so recency survives the round
// trip; the tier below is not part of the snapshot — the caller restores
// the chain bottom-up and rewires it.
type Snapshot struct {
	Params    Params
	Promote   int
	Lines     []LineState
	Hot       []HotEntry
	Epoch     uint32
	MissCount uint64
	Stats     Stats
}

// Snapshot captures the tier's complete state for checkpointing. The
// in-memory SoA lanes are re-interleaved into LineState records, so the
// serialized format is layout-independent.
//
// setCount, ways, setMask, setShift and hotMask are not captured: they
// derive from Params and New recomputes them on restore. next is external
// wiring supplied by the caller of FromSnapshot.
func (d *Cache) Snapshot() Snapshot {
	lines := make([]LineState, len(d.tags))
	for i, tag := range d.tags {
		lines[i] = LineState{Tag: tag, Valid: d.meta[i]&metaValid != 0, Dirty: d.meta[i]&metaDirty != 0}
	}
	hot := make([]HotEntry, len(d.hotTags))
	for i, page := range d.hotTags {
		hot[i] = HotEntry{Page: page, Count: d.hotCnt[i], Epoch: d.hotEpoch[i]}
	}
	return Snapshot{
		Params:    d.p,
		Promote:   d.promote,
		Lines:     lines,
		Hot:       hot,
		Epoch:     d.epoch,
		MissCount: d.missCount,
		Stats:     d.st,
	}
}

// FromSnapshot rebuilds a DRAM cache tier from a state captured with
// Snapshot, forwarding to next. The rebuilt tier continues the identical
// simulation. The line and hot-table counts are checked against the
// snapshot's before the tier is allocated, so a crafted snapshot cannot
// ask for arrays larger than itself.
func FromSnapshot(s Snapshot, next hierarchy.Mem) (*Cache, error) {
	if err := s.Params.Validate(); err != nil {
		return nil, err
	}
	if lines := s.Params.CacheBytes / LineBytes; len(s.Lines) != lines {
		return nil, fmt.Errorf("dram: snapshot has %d lines, geometry says %d", len(s.Lines), lines)
	}
	if len(s.Hot) != s.Params.HotTableSize {
		return nil, fmt.Errorf("dram: snapshot has %d hot-table slots, geometry says %d", len(s.Hot), s.Params.HotTableSize)
	}
	d, err := New(s.Params, next)
	if err != nil {
		return nil, err
	}
	if s.Promote < 1 || s.Promote > MaxPromoteThreshold {
		return nil, fmt.Errorf("dram: snapshot promote threshold %d outside [1,%d]", s.Promote, MaxPromoteThreshold)
	}
	for i, ls := range s.Lines {
		d.tags[i] = ls.Tag
		var m uint8
		if ls.Valid {
			m |= metaValid
		}
		if ls.Dirty {
			m |= metaDirty
		}
		d.meta[i] = m
	}
	for i, he := range s.Hot {
		d.hotTags[i] = he.Page
		d.hotCnt[i] = he.Count
		d.hotEpoch[i] = he.Epoch
	}
	d.epoch = s.Epoch
	d.missCount = s.MissCount
	d.promote = s.Promote
	d.st = s.Stats
	return d, nil
}

// Clone returns a deep copy of the tier forwarding to next (the caller
// clones the chain bottom-up and passes the cloned tier below). The copy
// shares no mutable state with the original.
func (d *Cache) Clone(next hierarchy.Mem) *Cache { return d.CloneInto(nil, next) }

// CloneInto is Clone into dst, reusing its arrays (nil dst allocates a new
// tier): copying a tier into one cloned from it earlier allocates nothing.
func (d *Cache) CloneInto(dst *Cache, next hierarchy.Mem) *Cache {
	if dst == nil {
		dst = new(Cache)
	}
	n := *dst
	*dst = *d
	dst.next = next
	dst.tags = append(n.tags[:0], d.tags...)
	dst.meta = append(n.meta[:0], d.meta...)
	dst.hotTags = append(n.hotTags[:0], d.hotTags...)
	dst.hotCnt = append(n.hotCnt[:0], d.hotCnt...)
	dst.hotEpoch = append(n.hotEpoch[:0], d.hotEpoch...)
	return dst
}
