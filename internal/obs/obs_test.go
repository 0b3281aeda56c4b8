package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("test.counter") != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("test.gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.hist", []float64{1, 2, 4})
	h.Observe(0.5)   // bucket 0 (<=1)
	h.Observe(1)     // bucket 0 (inclusive upper bound)
	h.Observe(1.5)   // bucket 1
	h.ObserveN(3, 2) // bucket 2, twice
	h.Observe(9)     // overflow bucket
	want := []uint64{2, 1, 2, 1}
	got := h.Counts()
	if len(got) != len(want) {
		t.Fatalf("counts len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
}

func TestHistogramSetValues(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.dist", []float64{10, 20})
	h.Observe(5)
	h.SetValues([]float64{3, 15, 15, 99})
	want := []uint64{1, 2, 1}
	for i, c := range h.Counts() {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4 (SetValues must replace, not add)", h.Count())
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestRegistrationCollisionsPanic(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup.name")
	mustPanic(t, "kind collision", func() { r.Gauge("dup.name") })
	r.Gauge("vol.gauge")
	mustPanic(t, "volatility collision", func() { r.VolatileGauge("vol.gauge") })
	r.Histogram("h.name", []float64{1, 2})
	mustPanic(t, "bounds collision", func() { r.Histogram("h.name", []float64{1, 3}) })
	mustPanic(t, "invalid name", func() { r.Counter("Bad-Name") })
	mustPanic(t, "empty bounds", func() { r.Histogram("h.empty", nil) })
	mustPanic(t, "unsorted bounds", func() { r.Histogram("h.unsorted", []float64{2, 1}) })
	mustPanic(t, "nan bound", func() { r.Histogram("h.nan", []float64{math.NaN()}) })
}

func TestDumpSortedAndStable(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("zz.last").Add(3)
		r.Counter("aa.first").Add(1)
		r.Gauge("mm.mid").Set(0.5)
		r.Histogram("hh.hist", []float64{1, 2}).Observe(1.5)
		return r
	}
	a, b := build().DumpJSON(), build().DumpJSON()
	if !bytes.Equal(a, b) {
		t.Errorf("dumps differ across identical registries:\n%s\n%s", a, b)
	}
	s := string(a)
	if strings.Index(s, "aa.first") > strings.Index(s, "zz.last") {
		t.Error("dump not sorted by name")
	}
	if !strings.HasSuffix(s, "\n") {
		t.Error("dump missing trailing newline")
	}
}

func TestVolatileExcludedFromStableDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("stable.counter").Inc()
	r.VolatileGauge("volatile.gauge").Set(123)
	r.VolatileHistogram("volatile.hist", []float64{1}).Observe(0.5)
	stable := string(r.DumpJSON())
	if strings.Contains(stable, "volatile.") {
		t.Errorf("volatile instrument leaked into stable dump:\n%s", stable)
	}
	all := string(r.DumpAllJSON())
	for _, name := range []string{"stable.counter", "volatile.gauge", "volatile.hist"} {
		if !strings.Contains(all, name) {
			t.Errorf("DumpAllJSON missing %s", name)
		}
	}
}

func TestNonFiniteGaugeClampedInDump(t *testing.T) {
	r := NewRegistry()
	r.Gauge("bad.gauge").Set(math.NaN())
	if !strings.Contains(string(r.DumpJSON()), `"bad.gauge": 0`) {
		t.Errorf("NaN gauge not clamped:\n%s", r.DumpJSON())
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c.one").Add(7)
	r.Gauge("g.one").Set(1.25)
	r.Histogram("h.one", []float64{1, 2}).ObserveN(1.5, 3)
	r.VolatileGauge("v.one").Set(9)

	got, err := FromState(r.State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.DumpJSON(), r.DumpJSON()) {
		t.Errorf("stable dump changed across State round-trip:\n%s\n%s",
			r.DumpJSON(), got.DumpJSON())
	}
	if !bytes.Equal(got.DumpAllJSON(), r.DumpAllJSON()) {
		t.Errorf("full dump changed across State round-trip (volatility lost?)")
	}
	// The rebuilt registry must keep enforcing identity.
	mustPanic(t, "kind collision after restore", func() { got.Gauge("c.one") })
}

// TestFromStateRejectsBadState: a state from disk that would make the
// registry panic, or hold an instrument it cannot have, is an error.
func TestFromStateRejectsBadState(t *testing.T) {
	hist := func(name string, bounds []float64, counts []uint64) InstrumentState {
		return InstrumentState{Name: name, Kind: "histogram", Bounds: bounds, Counts: counts}
	}
	cases := map[string][]InstrumentState{
		"invalid name":         {{Name: "Bad Name", Kind: "counter", Count: 1}},
		"counts miss a bucket": {hist("h.bad", []float64{1, 2}, []uint64{1})},
		"descending bounds":    {hist("h.bad", []float64{2, 1}, []uint64{0, 0, 0})},
		"unknown kind":         {{Name: "c.one", Kind: "meter"}},
		"counter and gauge": {
			{Name: "cache.eager_writes", Kind: "counter", Count: 3},
			{Name: "cache.eager_writes", Kind: "gauge", Value: 1},
		},
		"name repeated": {{Name: "c.one", Kind: "counter"}, {Name: "c.one", Kind: "counter"}},
		"names descend": {{Name: "c.two", Kind: "counter"}, {Name: "c.one", Kind: "counter"}},
	}
	for name, ins := range cases {
		if _, err := FromState(State{Instruments: ins}); err == nil {
			t.Errorf("%s: FromState accepted invalid state", name)
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c.shared")
	c.Add(2)
	h := r.Histogram("h.shared", []float64{1})
	h.Observe(0.5)

	cl := r.Clone()
	before := cl.DumpJSON()

	// Advancing the parent must not perturb the clone, and vice versa.
	c.Add(100)
	h.ObserveN(0.5, 50)
	if !bytes.Equal(cl.DumpJSON(), before) {
		t.Error("advancing parent perturbed clone")
	}
	cl.Counter("c.shared").Add(1)
	if got := r.Counter("c.shared").Value(); got != 102 {
		t.Errorf("advancing clone perturbed parent: %d", got)
	}
	if got := cl.Counter("c.shared").Value(); got != 3 {
		t.Errorf("clone counter = %d, want 3", got)
	}
}

// TestConcurrentAddsDeterministic exercises the commutativity contract:
// counters and histograms reach the same totals regardless of goroutine
// interleaving (run under -race in CI).
func TestConcurrentAddsDeterministic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c.conc")
	h := r.Histogram("h.conc", []float64{5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(3)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

func TestTextSink(t *testing.T) {
	var buf bytes.Buffer
	sink := TextSink(&buf)
	sink(Event{Text: "hello"})
	sink(Event{Scope: "sweep", Done: 1, Total: 2}) // empty Text: dropped
	sink(Event{Text: "world"})
	if got := buf.String(); got != "hello\nworld\n" {
		t.Errorf("TextSink output = %q", got)
	}
}
