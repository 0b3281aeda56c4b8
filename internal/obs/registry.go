// Package obs is the observability layer of the reproduction: a
// dependency-free, deterministic metrics-and-tracing subsystem. The paper's
// runtime lives on introspection — it watches IPC/lifetime/energy windows,
// detects phases and health-checks against a baseline (§3) — and the
// ROADMAP's production-scale goal makes the same demand of the system
// itself: you cannot tune what you cannot see.
//
// The package has two halves:
//
//   - a Registry of counters, gauges and fixed-bucket histograms with
//     stable identity (names obey one grammar, each publisher registers
//     one name per instrument field, dumps are sorted by name, collisions
//     are programmer errors), participating in the simulator's
//     Clone/State/FromState snapshot contract;
//   - a TraceSink event stream (event.go) that generalizes the engine's
//     progress sink so sweeps, experiments and runtime decisions flow
//     through one observer API.
//
// Determinism rules (see DESIGN.md, "Observability"):
//
//   - Instrument updates are commutative in exact arithmetic: counters and
//     histogram bucket counts are uint64 adds, so concurrent emitters at
//     any worker count produce identical totals. Histograms deliberately
//     carry no float sum — floating-point accumulation order would leak
//     scheduling into dumps.
//   - Wall-clock and scheduling-dependent signals (task durations, worker
//     counts) are second-class: they register through the Volatile*
//     constructors and are excluded from the stable dump (DumpJSON), so
//     stable dumps are byte-identical at any worker count.
//   - Gauges are last-write-wins and belong to single-writer contexts (a
//     machine window, the runtime loop) or to the volatile class.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// nameRe is the metric-name grammar. Names are dotted lowercase paths
// ("cache.hits", "nvm.bank_queue_depth").
var nameRe = regexp.MustCompile(`^[a-z0-9_.]+$`)

// Counter is a monotonically increasing uint64 metric. Adds are atomic and
// commutative, so any number of goroutines may share one counter without
// perturbing determinism.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a last-write-wins float64 metric. Writes are atomic; gauges
// belong to single-writer contexts (or the volatile class) — concurrent
// last-write-wins is scheduling-dependent by nature.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: bounds are ascending upper
// bounds, counts has len(bounds)+1 entries (the last is the overflow
// bucket), and there is deliberately no float sum (see the package
// determinism rules).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64
	total  uint64
}

// Observe records one observation of v.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v (the bulk form used by publishers
// that translate layer stat deltas into bucket increments).
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[h.bucketOf(v)] += n
	h.total += n
}

// SetValues replaces the histogram's contents with the distribution of vs —
// the state-distribution form (e.g. per-bank wear: the current spread
// across banks, not a cumulative event stream). Deterministic given vs.
func (h *Histogram) SetValues(vs []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	for _, v := range vs {
		h.counts[h.bucketOf(v)]++
	}
	h.total = uint64(len(vs))
}

// bucketOf returns the bucket index of v (callers hold h.mu).
func (h *Histogram) bucketOf(v float64) int {
	// sort.SearchFloat64s returns the first bound >= v for exact hits; we
	// want "first bound >= v" semantics (bounds are inclusive upper bounds).
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	return i
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.bounds...)
}

// Counts returns a copy of the bucket counts (len(Bounds())+1, last is
// overflow).
func (h *Histogram) Counts() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// kind discriminates instrument types within a registry.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// instrument is one named registration slot.
type instrument struct {
	kind     kind
	volatile bool
	counter  *Counter
	gauge    *Gauge
	hist     *Histogram
}

// clone deep-copies the instrument's current value into a fresh instrument.
func (in *instrument) clone() *instrument {
	n := &instrument{kind: in.kind, volatile: in.volatile}
	switch in.kind {
	case kindCounter:
		n.counter = &Counter{}
		n.counter.Add(in.counter.Value())
	case kindGauge:
		n.gauge = &Gauge{}
		n.gauge.Set(in.gauge.Value())
	case kindHistogram:
		n.hist = &Histogram{
			bounds: append([]float64(nil), in.hist.bounds...),
			counts: in.hist.Counts(),
			total:  in.hist.Count(),
		}
	}
	return n
}

// Registry is a set of named instruments with stable identity: names obey
// nameRe, registration is get-or-create, and re-registering a name under a
// different kind, volatility or bucket layout is a programmer error that
// panics immediately (metric identity must never be ambiguous). All methods
// are safe for concurrent use.
type Registry struct {
	mu          sync.Mutex
	instruments map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{instruments: map[string]*instrument{}}
}

// getOrCreate is the single registration chokepoint. It panics on invalid
// names and identity collisions — both are programmer errors. Two fields
// of one publisher registered under one name do not collide here; each
// layer's telemetry test catches that by counting names against fields.
func (r *Registry) getOrCreate(name string, k kind, volatile bool, bounds []float64) *instrument {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want [a-z0-9_.]+)", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.instruments[name]; ok {
		if in.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, k, in.kind))
		}
		if in.volatile != volatile {
			panic(fmt.Sprintf("obs: metric %q re-registered with different volatility", name))
		}
		if k == kindHistogram && !sameBounds(in.hist.bounds, bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
		}
		return in
	}
	in := &instrument{kind: k, volatile: volatile}
	switch k {
	case kindCounter:
		in.counter = &Counter{}
	case kindGauge:
		in.gauge = &Gauge{}
	case kindHistogram:
		if err := validBounds(bounds); err != nil {
			panic(fmt.Sprintf("obs: histogram %q: %v", name, err))
		}
		in.hist = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]uint64, len(bounds)+1),
		}
	}
	r.instruments[name] = in
	return in
}

// sameBounds compares bucket layouts bitwise (bounds are construction
// constants; bit equality is the right identity notion and avoids float
// tolerance questions).
func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// validBounds checks a bucket layout: non-empty, finite, strictly
// ascending.
func validBounds(bounds []float64) error {
	if len(bounds) == 0 {
		return fmt.Errorf("empty bucket bounds")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("non-finite bound %g", b)
		}
		if i > 0 && b <= bounds[i-1] {
			return fmt.Errorf("bounds not strictly ascending at %g", b)
		}
	}
	return nil
}

// Counter registers (or finds) a counter under name.
func (r *Registry) Counter(name string) *Counter {
	return r.getOrCreate(name, kindCounter, false, nil).counter
}

// Gauge registers (or finds) a gauge under name.
func (r *Registry) Gauge(name string) *Gauge {
	return r.getOrCreate(name, kindGauge, false, nil).gauge
}

// Histogram registers (or finds) a fixed-bucket histogram under name.
// bounds are ascending inclusive upper bounds; an implicit overflow bucket
// is appended.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.getOrCreate(name, kindHistogram, false, bounds).hist
}

// VolatileGauge registers a gauge carrying wall-clock or
// scheduling-dependent data. Volatile instruments are excluded from the
// stable dump so DumpJSON stays byte-identical at any worker count.
func (r *Registry) VolatileGauge(name string) *Gauge {
	return r.getOrCreate(name, kindGauge, true, nil).gauge
}

// VolatileHistogram is the histogram flavor of VolatileGauge.
func (r *Registry) VolatileHistogram(name string, bounds []float64) *Histogram {
	return r.getOrCreate(name, kindHistogram, true, bounds).hist
}

// Names returns the sorted names of all registered instruments (volatile
// included).
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.instruments))
	for name := range r.instruments {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Clone returns an independent deep copy of the registry: instrument
// identities and current values are preserved, and updating one registry
// never perturbs the other. This is what lets a registry ride along the
// simulator's machine Clone.
func (r *Registry) Clone() *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := &Registry{instruments: make(map[string]*instrument, len(r.instruments))}
	for name, in := range r.instruments {
		n.instruments[name] = in.clone()
	}
	return n
}

// HistogramState is the serializable form of one histogram.
type HistogramState struct {
	Bounds []float64
	Counts []uint64
}

// State is the complete serializable state of a Registry — the payload the
// simulator embeds in versioned machine checkpoints.
type State struct {
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistogramState
	// Volatile lists the names registered through the Volatile*
	// constructors, sorted.
	Volatile []string
}

// State captures the registry's contents.
func (r *Registry) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := State{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramState{},
	}
	for name, in := range r.instruments {
		if in.volatile {
			s.Volatile = append(s.Volatile, name)
		}
		switch in.kind {
		case kindCounter:
			s.Counters[name] = in.counter.Value()
		case kindGauge:
			s.Gauges[name] = in.gauge.Value()
		case kindHistogram:
			s.Histograms[name] = HistogramState{Bounds: in.hist.Bounds(), Counts: in.hist.Counts()}
		}
	}
	sort.Strings(s.Volatile)
	return s
}

// FromState rebuilds a registry from a state captured with State. The
// rebuilt registry carries the identical instruments and values.
func FromState(s State) (*Registry, error) {
	r := NewRegistry()
	vol := map[string]bool{}
	for _, name := range s.Volatile {
		vol[name] = true
	}
	for name, v := range s.Counters {
		if !nameRe.MatchString(name) {
			return nil, fmt.Errorf("obs: state counter name %q invalid", name)
		}
		r.getOrCreate(name, kindCounter, vol[name], nil).counter.Add(v)
	}
	for name, v := range s.Gauges {
		if !nameRe.MatchString(name) {
			return nil, fmt.Errorf("obs: state gauge name %q invalid", name)
		}
		// One Set per distinct gauge key: the map's iteration order cannot
		// change the restored values.
		r.getOrCreate(name, kindGauge, vol[name], nil).gauge.Set(v)
	}
	for name, hs := range s.Histograms {
		if !nameRe.MatchString(name) {
			return nil, fmt.Errorf("obs: state histogram name %q invalid", name)
		}
		if len(hs.Counts) != len(hs.Bounds)+1 {
			return nil, fmt.Errorf("obs: state histogram %q has %d counts for %d bounds", name, len(hs.Counts), len(hs.Bounds))
		}
		if err := validBounds(hs.Bounds); err != nil {
			return nil, fmt.Errorf("obs: state histogram %q: %w", name, err)
		}
		h := r.getOrCreate(name, kindHistogram, vol[name], hs.Bounds).hist
		h.mu.Lock()
		copy(h.counts, hs.Counts)
		var total uint64
		for _, c := range hs.Counts {
			total += c
		}
		h.total = total
		h.mu.Unlock()
	}
	return r, nil
}
