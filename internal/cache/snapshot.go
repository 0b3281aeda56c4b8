// Snapshot support for the LLC: an exported, serializable state for
// machine checkpoints (in-memory deep copies use Clone).
package cache

import "fmt"

// Clone returns a deep copy of s: mutating the clone's HitsByPos never
// perturbs the original.
func (s Stats) Clone() Stats {
	n := s
	n.HitsByPos = append([]uint64(nil), s.HitsByPos...)
	return n
}

// LineState is the serializable state of one cache line.
type LineState struct {
	Tag   uint64
	Valid bool
	Dirty bool
}

// Snapshot is the complete serializable state of a Cache. Lines are stored
// set-major in MRU..LRU order, so LRU recency survives the round trip.
type Snapshot struct {
	SizeBytes   int
	Ways        int
	Lines       []LineState
	EagerCursor int
	Stats       Stats
}

// Snapshot captures the cache's complete state for checkpointing. The tag
// lane and the per-set masks are re-interleaved into LineState records, so
// the serialized format is independent of the in-memory layout.
//
//mctlint:ignore clonefields wayMask, setMask and setShift are derived from the geometry and recomputed by New on restore
func (c *Cache) Snapshot() Snapshot {
	lines := make([]LineState, len(c.tags))
	for i, tag := range c.tags {
		set, pos := i/c.ways, i%c.ways
		lines[i] = LineState{Tag: tag, Valid: c.valid[set]>>pos&1 != 0, Dirty: c.dirty[set]>>pos&1 != 0}
	}
	st := c.stats
	st.HitsByPos = append([]uint64(nil), c.stats.HitsByPos...)
	return Snapshot{
		SizeBytes:   c.setCount * c.ways * LineBytes,
		Ways:        c.ways,
		Lines:       lines,
		EagerCursor: c.eagerCursor,
		Stats:       st,
	}
}

// FromSnapshot rebuilds a cache from a state captured with Snapshot. The
// rebuilt cache continues the identical simulation. A snapshot no run can
// produce — a dirty line that is not valid, or a hit total that is not the
// sum of the hit histogram — is rejected.
func FromSnapshot(s Snapshot) (*Cache, error) {
	c, err := New(s.SizeBytes, s.Ways)
	if err != nil {
		return nil, err
	}
	if len(s.Lines) != c.setCount*c.ways {
		return nil, fmt.Errorf("cache: snapshot has %d lines, geometry says %d", len(s.Lines), c.setCount*c.ways)
	}
	if len(s.Stats.HitsByPos) != c.ways {
		return nil, fmt.Errorf("cache: snapshot hit histogram has %d positions, geometry says %d", len(s.Stats.HitsByPos), c.ways)
	}
	if s.EagerCursor < 0 || s.EagerCursor >= c.setCount {
		return nil, fmt.Errorf("cache: snapshot eager cursor %d outside [0,%d)", s.EagerCursor, c.setCount)
	}
	var hits uint64
	for _, h := range s.Stats.HitsByPos {
		hits += h
	}
	if hits != s.Stats.Hits {
		return nil, fmt.Errorf("cache: snapshot counts %d hits, its histogram %d", s.Stats.Hits, hits)
	}
	for i, ls := range s.Lines {
		if ls.Dirty && !ls.Valid {
			return nil, fmt.Errorf("cache: snapshot line %d is dirty but not valid", i)
		}
		set, pos := i/c.ways, i%c.ways
		c.tags[i] = ls.Tag
		if ls.Valid {
			c.valid[set] |= 1 << pos
		}
		if ls.Dirty {
			c.dirty[set] |= 1 << pos
		}
	}
	c.eagerCursor = s.EagerCursor
	c.stats = s.Stats
	c.stats.HitsByPos = append([]uint64(nil), s.Stats.HitsByPos...)
	return c, nil
}
