package dram

import "mct/internal/obs"

// Obs publishes DRAM-tier telemetry into an obs.Registry. Like the cache
// and nvm publishers, the tier keeps cheap native counters on the hot
// path and a publisher translates cumulative-stats deltas into registry
// updates at window boundaries, so instrumentation adds zero per-access
// cost. The family is only registered on hybrid machines: NVM-only runs
// carry no dram.* instruments and their metric dumps are unchanged.
type Obs struct {
	reg *obs.Registry

	hits          *obs.Counter
	misses        *obs.Counter
	writeHits     *obs.Counter
	writeMisses   *obs.Counter
	eagerAbsorbed *obs.Counter
	promotions    *obs.Counter
	writebacks    *obs.Counter
	drainFlushes  *obs.Counter
	// hitRate is the demand-fill hit ratio over the last published window.
	hitRate *obs.Gauge

	last Stats
}

// NewObs registers the dram metric family on r. The returned publisher
// starts with a zero baseline; call Rebase with the tier's current stats
// when attaching to a warm tier.
func NewObs(r *obs.Registry) *Obs {
	return &Obs{
		reg:           r,
		hits:          r.Counter("dram.hits"),
		misses:        r.Counter("dram.misses"),
		writeHits:     r.Counter("dram.write_hits"),
		writeMisses:   r.Counter("dram.write_misses"),
		eagerAbsorbed: r.Counter("dram.eager_absorbed"),
		promotions:    r.Counter("dram.promotions"),
		writebacks:    r.Counter("dram.writebacks"),
		drainFlushes:  r.Counter("dram.drain_flushes"),
		hitRate:       r.Gauge("dram.hit_rate"),
	}
}

// Rebase sets the delta baseline to s without publishing, so activity
// before s is never accounted.
func (o *Obs) Rebase(s Stats) { o.last = s }

// Publish accounts the delta between s (a Stats snapshot from
// Cache.Stats) and the previous baseline, then advances the baseline.
func (o *Obs) Publish(s Stats) {
	o.hits.Add(s.Hits - o.last.Hits)
	o.misses.Add(s.Misses - o.last.Misses)
	o.writeHits.Add(s.WriteHits - o.last.WriteHits)
	o.writeMisses.Add(s.WriteMisses - o.last.WriteMisses)
	o.eagerAbsorbed.Add(s.EagerAbsorbed - o.last.EagerAbsorbed)
	o.promotions.Add(s.Promotions - o.last.Promotions)
	o.writebacks.Add(s.Writebacks - o.last.Writebacks)
	o.drainFlushes.Add(s.DrainFlushes - o.last.DrainFlushes)
	dFill := (s.Hits + s.Misses) - (o.last.Hits + o.last.Misses)
	if dFill > 0 {
		dHit := s.Hits - o.last.Hits
		o.hitRate.Set(float64(dHit) / float64(dFill))
	}
	o.last = s
}

// CloneInto rebinds a copy of this publisher to r (a clone of the
// original registry), preserving the delta baseline so the cloned machine
// continues accounting exactly where the parent left off.
func (o *Obs) CloneInto(r *obs.Registry) *Obs {
	n := NewObs(r)
	n.last = o.last.Clone()
	return n
}
