package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mct/internal/obs"
)

// TestRunSweepConcurrent hammers RunSweep from goroutines racing on the same
// and on different keys. Under `go test -race` this audits the sweep cache's
// locking; the pointer-identity assertions prove single-flight behavior
// (concurrent callers of one key share one computation).
func TestRunSweepConcurrent(t *testing.T) {
	opt := tinyOptions()
	opt.Sweeps = NewSweepCache("")

	benches := []string{"lbm", "stream"}
	const perBench = 4
	n := perBench * len(benches)
	results := make([]*Sweep, n)
	errs := make([]error, n)

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunSweep(context.Background(), benches[i%len(benches)], false, opt)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		same := results[i%len(benches)]
		if results[i] != same {
			t.Errorf("worker %d: got a distinct *Sweep for %s; want the single-flight shared one",
				i, benches[i%len(benches)])
		}
	}
	if results[0] == results[1] {
		t.Error("different benchmarks returned the same sweep")
	}
	for i, s := range results {
		if len(s.Indices) == 0 || len(s.Indices) != len(s.Metrics) {
			t.Fatalf("worker %d: malformed sweep: %d indices, %d metrics",
				i, len(s.Indices), len(s.Metrics))
		}
	}
}

// TestSweepEventsWorkerInvariant: a sweep's progress events count
// configurations, not the engine's batch tasks. A stride-1 sweep crosses
// 500 four times, and the event stream — every 500th configuration, the
// text the serial loop printed — is byte-identical at 1, 2 and 4 workers,
// however the batches complete.
func TestSweepEventsWorkerInvariant(t *testing.T) {
	eventsAt := func(workers int) string {
		opt := tinyOptions()
		opt.Sweeps = nil // every worker count computes
		opt.Stride = 1
		opt.Accesses = 200
		opt.Workers = workers
		var buf bytes.Buffer
		opt.Events = obs.TextSink(&buf)
		if _, err := RunSweep(context.Background(), "lbm", false, opt); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := "  sweep lbm: 500/2030 configs\n  sweep lbm: 1000/2030 configs\n" +
		"  sweep lbm: 1500/2030 configs\n  sweep lbm: 2000/2030 configs\n"
	for _, w := range []int{1, 2, 4} {
		if got := eventsAt(w); got != want {
			t.Errorf("workers=%d: events\n%s\nwant\n%s", w, got, want)
		}
	}
}

// TestExperimentReportDeterminism runs a short experiment twice with the
// same seed in one process (cold caches both times) and asserts the rendered
// reports are byte-identical — the regression guard for the tree-wide rule
// that every random draw derives from the seed flags.
func TestExperimentReportDeterminism(t *testing.T) {
	opt := tinyOptions()
	opt.Sweeps = nil // cold: Run builds a fresh cache per call
	opt.Trials = 1

	render := func() string {
		rep, err := Run(context.Background(), "fig4b", opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep.Fprint(&buf)
		return buf.String()
	}

	first := render()
	if first == "" {
		t.Fatal("empty report")
	}
	if second := render(); first != second {
		t.Errorf("same-seed reports differ\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

// TestParallelDeterminismAcrossWorkers renders fig1 (sweep fan-out across
// configurations AND across benchmarks) at several worker counts with cold
// caches and asserts byte-identical reports — the engine's central
// guarantee: parallelism changes only wall-clock, never results.
func TestParallelDeterminismAcrossWorkers(t *testing.T) {
	opt := tinyOptions()
	opt.Sweeps = nil // cold: Run builds a fresh cache per call
	opt.Trials = 1

	render := func(workers int) string {
		o := opt
		o.Workers = workers
		rep, err := Run(context.Background(), "fig1", o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		rep.Fprint(&buf)
		return buf.String()
	}

	counts := []int{1, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 {
		counts = append(counts, g)
	}
	want := render(counts[0])
	if want == "" {
		t.Fatal("empty report")
	}
	for _, w := range counts[1:] {
		if got := render(w); got != want {
			t.Errorf("report at Workers=%d differs from Workers=%d\n--- w=%d:\n%s\n--- w=%d:\n%s",
				w, counts[0], counts[0], want, w, got)
		}
	}
}

// TestEnergyPathParallelDeterminism targets the energy accounting that
// mctlint's maprange rule flagged: energy.Compute used to sum write energy
// by ranging Stats.WritesByRatio, so runs whose configurations write at
// several latency ratios (the wear-quota variants swept here) could produce
// different float totals per run. fig3 sweeps both the plain and the
// wear-quota space through the worker pool and regresses on energy targets,
// so a byte-identical report at Workers=1 and Workers=4 pins the fix
// end-to-end.
func TestEnergyPathParallelDeterminism(t *testing.T) {
	opt := tinyOptions()
	opt.Sweeps = nil // cold: Run builds a fresh cache per call
	opt.Benchmarks = []string{"lbm"}
	opt.Trials = 1

	render := func(workers int) string {
		o := opt
		o.Workers = workers
		rep, err := Run(context.Background(), "fig3", o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		rep.Fprint(&buf)
		return buf.String()
	}

	want := render(1)
	if want == "" {
		t.Fatal("empty report")
	}
	if got := render(4); got != want {
		t.Errorf("fig3 report at Workers=4 differs from Workers=1\n--- w=1:\n%s\n--- w=4:\n%s", want, got)
	}
}

// TestRunSweepCancellation checks the cancellation contract: a cancelled
// context aborts a sweep with ctx.Err(), and both layers of the cache stay
// consistent — an immediate retry with a live context succeeds and writes
// the disk entry only then.
func TestRunSweepCancellation(t *testing.T) {
	dir := t.TempDir()
	opt := tinyOptions()
	opt.Sweeps = NewSweepCache(dir)
	opt.Workers = 2

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSweep(ctx, "lbm", false, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}

	// The failed entry must not poison either cache: a retry recomputes.
	s, err := RunSweep(context.Background(), "lbm", false, opt)
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if len(s.Indices) == 0 || len(s.Indices) != len(s.Metrics) {
		t.Fatalf("retry produced malformed sweep: %d indices, %d metrics", len(s.Indices), len(s.Metrics))
	}

	// And the disk entry written by the successful retry round-trips: a
	// new cache over the same directory loads it instead of computing.
	opt.Sweeps = NewSweepCache(dir)
	opt.Obs = obs.NewRegistry()
	s2, err := RunSweep(context.Background(), "lbm", false, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := sweepsComputed(opt.Obs); n != 0 {
		t.Fatalf("disk hit computed %d sweeps, want 0", n)
	}
	if len(s2.Indices) != len(s.Indices) {
		t.Fatalf("disk-cache round trip changed sweep size: %d != %d", len(s2.Indices), len(s.Indices))
	}
	// Losslessly: every metric of every configuration, the per-bank wear
	// and the write-ratio histogram included.
	if !reflect.DeepEqual(s2, s) {
		t.Errorf("disk-cache round trip changed the sweep:\nbaseline %+v\nvs       %+v", s2.Baseline, s.Baseline)
	}
}

// TestSweepKeyIncludesSimOptions is the regression test for the cache-key
// bug: two Options differing only in sim.Options (here the LLC geometry)
// must produce distinct cache keys and distinct sweeps — before the fix
// they silently shared one cached sweep.
func TestSweepKeyIncludesSimOptions(t *testing.T) {
	a := tinyOptions()
	b := tinyOptions()
	b.Sim.CacheBytes = a.Sim.CacheBytes / 2

	ka := sweepKeyFor("lbm", false, a)
	kb := sweepKeyFor("lbm", false, b)
	if ka == kb {
		t.Fatalf("sweep keys identical for different sim.Options: %+v", ka)
	}
	if ka.filename() == kb.filename() {
		t.Fatalf("disk-cache filenames identical for different sim.Options: %s", ka.filename())
	}

	sa, err := RunSweep(context.Background(), "lbm", false, a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := RunSweep(context.Background(), "lbm", false, b)
	if err != nil {
		t.Fatal(err)
	}
	if sa == sb {
		t.Fatal("different simulated systems shared one cached *Sweep")
	}
	// A smaller LLC must actually change measurements (more writebacks), so
	// sharing would have been wrong, not just ugly.
	if fmt.Sprintf("%v", sa.Baseline) == fmt.Sprintf("%v", sb.Baseline) {
		t.Error("halving the LLC left baseline metrics identical; sim digest may not cover the changed field")
	}
}

// TestModelComparisonReportDeterminism renders fig2 (the model-comparison
// table that used to embed a wall-clock overhead column) twice and asserts
// byte-identical reports. This is the regression guard for the move of the
// fit/predict timing off the stable tables and onto the progress stream:
// before that move fig2 could never have a byte-identity test at all.
func TestModelComparisonReportDeterminism(t *testing.T) {
	opt := tinyOptions()
	opt.Sweeps = nil // cold: Run builds a fresh cache per call
	opt.Trials = 1
	opt.SampleCounts = []int{40}

	render := func() string {
		rep, err := Run(context.Background(), "fig2", opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep.Fprint(&buf)
		return buf.String()
	}

	first := render()
	if first == "" {
		t.Fatal("empty report")
	}
	if strings.Contains(first, "overhead") && strings.Contains(first, "ms") {
		// The stable table must not regrow a wall-clock column; overhead
		// lives in the result struct and the progress stream only.
		t.Errorf("fig2 report mentions a timing column again:\n%s", first)
	}
	if second := render(); first != second {
		t.Errorf("same-seed fig2 reports differ\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}
