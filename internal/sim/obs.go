// Observer wiring for machines. A machine optionally carries an
// obs.Registry plus the publisher that feeds it; the hot path (step) is
// untouched — the tiers keep their cheap native Stats counters, and
// publishing turns cumulative-stats deltas into registry updates at window
// boundaries, in windowMetrics. Observers ride along the snapshot
// contract: Clone deep-copies the registry, Snapshot embeds its state in
// checkpoints, and RestoreMachine re-attaches it with the baseline rebased
// to the restore point so nothing is double-counted.
package sim

import (
	"fmt"
	"reflect"
	"strings"
	"unicode"

	"mct/internal/cache"
	"mct/internal/dram"
	"mct/internal/nvm"
	"mct/internal/obs"
)

// The layer counters. Every uint64 field of a layer's Stats is the counter
// "<family>.<field in snake_case>" (nvm.Stats.RowHits is nvm.row_hits);
// an `obs:"<name>"` tag replaces the snake_case part. The rule is worked
// out here, at package init, and a name taken twice panics here too.
// cacheCounters[i] names the counter of cache.Stats field i, "" for a
// field that is not a counter; likewise nvmCounters and dramCounters.
var (
	cacheCounters = counterNames("cache", reflect.TypeOf(cache.Stats{}))
	nvmCounters   = counterNames("nvm", reflect.TypeOf(nvm.Stats{}))
	dramCounters  = counterNames("dram", reflect.TypeOf(dram.Stats{}))
)

// init registers every instrument once, so a counter that takes the name
// of a hand-written gauge or histogram panics at init as well (the
// registry rejects a name registered with two kinds).
func init() { newMachineObs(obs.NewRegistry(), 1, 1, true) }

func counterNames(family string, t reflect.Type) []string {
	names := make([]string, t.NumField())
	seen := map[string]bool{}
	for i := range names {
		f := t.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			continue
		}
		name := f.Tag.Get("obs")
		if name == "" {
			name = snakeCase(f.Name)
		}
		names[i] = family + "." + name
		if seen[names[i]] {
			panic(fmt.Sprintf("sim: two %s.Stats fields publish %s", family, names[i]))
		}
		seen[names[i]] = true
	}
	return names
}

// snakeCase turns a Go field name into a metric name: RowHits → row_hits.
func snakeCase(s string) string {
	var b strings.Builder
	for i, r := range s {
		if i > 0 && unicode.IsUpper(r) {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}

// registerCounters registers the named counters on r; cs[i] publishes
// field i (nil where names[i] is "").
func registerCounters(r *obs.Registry, names []string) []*obs.Counter {
	cs := make([]*obs.Counter, len(names))
	for i, name := range names {
		if name != "" {
			cs[i] = r.Counter(name)
		}
	}
	return cs
}

// addDeltas adds to each counter the growth of its field from last to cur
// (pointers to one layer's Stats).
func addDeltas(cs []*obs.Counter, cur, last any) {
	c, l := reflect.ValueOf(cur).Elem(), reflect.ValueOf(last).Elem()
	for i, ctr := range cs {
		if ctr != nil {
			ctr.Add(c.Field(i).Uint() - l.Field(i).Uint())
		}
	}
}

// layerStats is the tiers' cumulative counters at one point: the
// publisher's delta baseline. dram stays zero on NVM-only machines.
type layerStats struct {
	cache cache.Stats
	nvm   nvm.Stats
	dram  dram.Stats
}

func (m *Machine) layerStats() layerStats {
	return layerStats{m.llc.Stats(), m.ctrl.Stats(), m.dramStats()}
}

// bankWearBounds are the buckets of the nvm.bank_wear histogram, as
// fractions of the per-bank wear budget (1.0 = end of life).
var bankWearBounds = []float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// positions returns the histogram bounds 0, 1, ..., n-1.
func positions(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i)
	}
	return b
}

// machineObs publishes a machine's telemetry into a registry: the layer
// counters, the hand-written gauges and histograms that are not plain
// counter deltas, and the sim-level window counter. The dram family is
// registered only on hybrid machines: NVM-only registries carry no dram.*
// instruments, so metric dumps of the stock hierarchy are unchanged by the
// tier seam.
//
// The baseline last holds the stats at attach (or last publish): a
// publisher attached mid-run only accounts activity from that point on,
// which is what makes checkpoint restore — registry restored with totals
// through the checkpoint, baseline rebased to the restore point — free of
// double counting.
type machineObs struct {
	reg        *obs.Registry
	ways       int
	wearBudget float64

	// cache, nvm and dram are the layer counters, indexed by Stats field.
	cache, nvm, dram []*obs.Counter

	// lruPos buckets LLC hits by LRU stack position (0 = MRU).
	lruPos *obs.Histogram
	// wbRate is LLC writebacks per access over the last published window.
	wbRate *obs.Gauge
	// queueDepth accumulates the per-bank write-queue depth distribution
	// sampled at each demand-write enqueue.
	queueDepth *obs.Histogram
	// bankWear is the current wear spread across banks as budget fractions
	// (a state distribution: replaced, not accumulated, each publish).
	bankWear                               *obs.Histogram
	wearMaxFrac, wearTotal, writeQueuePeak *obs.Gauge
	// hitRate is the DRAM tier's demand-fill hit ratio over the last
	// published window; nil on NVM-only machines.
	hitRate *obs.Gauge
	// windows counts metric-window computations — a cheap liveness signal
	// and a determinism tripwire (it must match across worker counts and
	// checkpoint resume).
	windows *obs.Counter

	last layerStats
}

// newMachineObs registers the machine's instruments on r (get-or-create:
// on a cloned or restored registry it finds the instruments, values
// preserved) with a zero baseline; callers rebase for warm state.
// withDRAM registers the dram.* family too.
func newMachineObs(r *obs.Registry, ways int, wearBudget float64, withDRAM bool) *machineObs {
	o := &machineObs{
		reg:            r,
		ways:           ways,
		wearBudget:     wearBudget,
		cache:          registerCounters(r, cacheCounters),
		nvm:            registerCounters(r, nvmCounters),
		lruPos:         r.Histogram("cache.lru_hit_position", positions(ways)),
		wbRate:         r.Gauge("cache.writeback_rate"),
		queueDepth:     r.Histogram("nvm.bank_queue_depth", positions(len(nvm.Stats{}.BankQueueDepth))),
		bankWear:       r.Histogram("nvm.bank_wear", bankWearBounds),
		wearMaxFrac:    r.Gauge("nvm.wear_max_frac"),
		wearTotal:      r.Gauge("nvm.wear_total"),
		writeQueuePeak: r.Gauge("nvm.write_queue_peak"),
		windows:        r.Counter("sim.windows"),
	}
	if withDRAM {
		o.dram = registerCounters(r, dramCounters)
		o.hitRate = r.Gauge("dram.hit_rate")
	}
	return o
}

// clone rebinds the observer to a deep copy of its registry, preserving
// the baseline so the cloned machine continues accounting exactly where
// the parent left off.
func (o *machineObs) clone() *machineObs {
	n := newMachineObs(o.reg.Clone(), o.ways, o.wearBudget, o.hitRate != nil)
	n.last = layerStats{o.last.cache.Clone(), o.last.nvm.Clone(), o.last.dram}
	return n
}

// publish pushes the deltas from the baseline to s into the registry,
// refreshes the gauges and state distributions, and advances the
// baseline to s.
func (o *machineObs) publish(s layerStats, countWindow bool) {
	last := &o.last
	addDeltas(o.cache, &s.cache, &last.cache)
	for pos, n := range s.cache.HitsByPos {
		if pos < len(last.cache.HitsByPos) {
			n -= last.cache.HitsByPos[pos]
		}
		o.lruPos.ObserveN(float64(pos), n)
	}
	if dAcc := (s.cache.Hits + s.cache.Misses) - (last.cache.Hits + last.cache.Misses); dAcc > 0 {
		o.wbRate.Set(float64(s.cache.Writebacks-last.cache.Writebacks) / float64(dAcc))
	}

	addDeltas(o.nvm, &s.nvm, &last.nvm)
	for depth, n := range s.nvm.BankQueueDepth {
		o.queueDepth.ObserveN(float64(depth), n-last.nvm.BankQueueDepth[depth])
	}
	if o.wearBudget > 0 {
		fracs := make([]float64, len(s.nvm.WearByBank))
		maxFrac := 0.0
		for i, w := range s.nvm.WearByBank {
			fracs[i] = w / o.wearBudget
			maxFrac = max(maxFrac, fracs[i])
		}
		o.bankWear.SetValues(fracs)
		o.wearMaxFrac.Set(maxFrac)
	}
	o.wearTotal.Set(s.nvm.TotalWear)
	o.writeQueuePeak.Set(float64(s.nvm.WriteQueuePeak))

	if o.hitRate != nil {
		addDeltas(o.dram, &s.dram, &last.dram)
		if dFill := (s.dram.Hits + s.dram.Misses) - (last.dram.Hits + last.dram.Misses); dFill > 0 {
			o.hitRate.Set(float64(s.dram.Hits-last.dram.Hits) / float64(dFill))
		}
	}
	if countWindow {
		o.windows.Inc()
	}
	o.last = s
}

// AttachObserver wires r into the machine: the per-tier metric families
// are registered on r and publishing starts at the next window boundary.
// The baseline is set to the machine's current stats, so only activity
// from the attach point on is accounted (this is what makes
// restore-then-attach free of double counting). A nil r detaches.
func (m *Machine) AttachObserver(r *obs.Registry) {
	if r == nil {
		m.obsv = nil
		return
	}
	o := newMachineObs(r, m.llc.Ways(), m.ctrl.WearBudget(), m.dram != nil)
	o.last = m.layerStats()
	m.obsv = o
}

// Observer returns the attached registry, or nil.
func (m *Machine) Observer() *obs.Registry {
	if m.obsv == nil {
		return nil
	}
	return m.obsv.reg
}

// SyncObserver publishes any stats accumulated since the last window
// boundary without ending the window (used before dumping or
// snapshotting). No-op when no observer is attached.
func (m *Machine) SyncObserver() {
	if m.obsv != nil {
		m.obsv.publish(m.layerStats(), false)
	}
}
