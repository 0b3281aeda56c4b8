package cache

import "mct/internal/obs"

// Obs publishes cache telemetry into an obs.Registry. The cache itself
// keeps its cheap native Stats counters on the hot path; a publisher
// translates cumulative-stats deltas into registry updates at window
// boundaries, so instrumentation adds zero per-access cost.
//
// The baseline `last` holds the stats at attach (or last publish): a
// publisher attached mid-run only accounts activity from that point on,
// which is exactly what makes checkpoint restore — registry restored with
// totals-through-checkpoint, baseline rebased to the restore point — free
// of double counting.
type Obs struct {
	reg  *obs.Registry
	ways int

	hits        *obs.Counter
	misses      *obs.Counter
	writebacks  *obs.Counter
	eagerWrites *obs.Counter
	// lruPos buckets hits by LRU stack position (0 = MRU); bucket i is
	// position i, the overflow bucket is unused for a well-formed cache.
	lruPos *obs.Histogram
	// wbRate is writebacks per cache access over the last published window.
	wbRate *obs.Gauge

	last Stats
}

// NewObs registers the cache metric family on r for a cache of the given
// associativity. The returned publisher starts with a zero baseline; call
// Rebase with the cache's current stats when attaching to a warm cache.
func NewObs(r *obs.Registry, ways int) *Obs {
	bounds := make([]float64, ways)
	for i := range bounds {
		bounds[i] = float64(i)
	}
	return &Obs{
		reg:         r,
		ways:        ways,
		hits:        r.Counter("cache.hits"),
		misses:      r.Counter("cache.misses"),
		writebacks:  r.Counter("cache.writebacks"),
		eagerWrites: r.Counter("cache.eager_writes"),
		lruPos:      r.Histogram("cache.lru_hit_position", bounds),
		wbRate:      r.Gauge("cache.writeback_rate"),
	}
}

// Rebase sets the delta baseline to s (a Stats snapshot) without
// publishing, so activity before s is never accounted.
func (o *Obs) Rebase(s Stats) { o.last = s }

// Publish accounts the delta between s (a Stats snapshot from
// Cache.Stats) and the previous baseline, then advances the baseline.
func (o *Obs) Publish(s Stats) {
	o.hits.Add(s.Hits - o.last.Hits)
	o.misses.Add(s.Misses - o.last.Misses)
	o.writebacks.Add(s.Writebacks - o.last.Writebacks)
	o.eagerWrites.Add(s.EagerWrites - o.last.EagerWrites)
	for pos := range s.HitsByPos {
		d := s.HitsByPos[pos]
		if pos < len(o.last.HitsByPos) {
			d -= o.last.HitsByPos[pos]
		}
		o.lruPos.ObserveN(float64(pos), d)
	}
	dAcc := (s.Hits + s.Misses) - (o.last.Hits + o.last.Misses)
	if dAcc > 0 {
		dWb := s.Writebacks - o.last.Writebacks
		o.wbRate.Set(float64(dWb) / float64(dAcc))
	}
	o.last = s
}

// CloneInto rebinds a copy of this publisher to r (a clone of the original
// registry), preserving the delta baseline so the cloned machine continues
// accounting exactly where the parent left off.
func (o *Obs) CloneInto(r *obs.Registry) *Obs {
	n := NewObs(r, o.ways)
	n.last = o.last.Clone()
	return n
}
