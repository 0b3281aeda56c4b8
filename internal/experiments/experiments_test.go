package experiments

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"mct/internal/core"
	"mct/internal/ml"
)

// testSweeps is the sweep cache the package's tests share through
// tinyOptions, so a sweep several tests need is computed once. Tests that
// need cold computations set Sweeps to nil or to a cache of their own.
var testSweeps = NewSweepCache("")

// tinyOptions keeps integration tests fast: two benchmarks, a heavily
// strided space and short traces.
func tinyOptions() Options {
	o := DefaultOptions()
	o.Benchmarks = []string{"lbm", "stream"}
	o.Accesses = 6_000
	o.Stride = 67
	o.Sweeps = testSweeps
	return o
}

const tinyInsts = 2_500_000

func TestRunSweepCachesAndShapes(t *testing.T) {
	opt := tinyOptions()
	opt.Sweeps = NewSweepCache("")
	s1, err := RunSweep(context.Background(), "lbm", false, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Indices) != len(s1.Metrics) || len(s1.Indices) == 0 {
		t.Fatalf("sweep shape wrong: %d/%d", len(s1.Indices), len(s1.Metrics))
	}
	wantLen := (s1.Space.Len() + opt.Stride - 1) / opt.Stride
	if len(s1.Indices) != wantLen {
		t.Fatalf("sweep covered %d configs, want %d", len(s1.Indices), wantLen)
	}
	// Cached: second call returns the identical object.
	s2, err := RunSweep(context.Background(), "lbm", false, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("sweep cache miss for identical key")
	}
	// Different key → different sweep.
	s3, err := RunSweep(context.Background(), "lbm", true, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 || s3.Space.Len() != 2*s1.Space.Len() {
		t.Fatal("wear-quota sweep must differ")
	}
	// Targets and vectors align.
	y := s1.Targets(core.MetricIPC, true)
	if len(y) != len(s1.Indices) || len(s1.Vectors()) != len(s1.Indices) {
		t.Fatal("targets/vectors misaligned")
	}
	if s1.Baseline.IPC <= 0 || s1.Default.IPC <= 0 {
		t.Fatal("reference metrics missing")
	}
}

func TestSweepIdealRespectsObjective(t *testing.T) {
	opt := tinyOptions()
	sw, err := RunSweep(context.Background(), "stream", true, opt)
	if err != nil {
		t.Fatal(err)
	}
	pos, ok := sw.Ideal(core.Default(opt.LifetimeTarget))
	if pos < 0 || pos >= len(sw.Metrics) {
		t.Fatalf("ideal position %d out of range", pos)
	}
	if ok {
		m := sw.Metrics[pos]
		if m.LifetimeYears < opt.LifetimeTarget {
			t.Fatalf("ideal violates lifetime: %v < %v", m.LifetimeYears, opt.LifetimeTarget)
		}
		// IPC within 95% of the qualified maximum.
		var best float64
		for _, mm := range sw.Metrics {
			if mm.LifetimeYears >= opt.LifetimeTarget && mm.IPC > best {
				best = mm.IPC
			}
		}
		if m.IPC < 0.95*best-1e-12 {
			t.Fatalf("ideal IPC %v below floor of best %v", m.IPC, best)
		}
	}
}

func TestIdealByApp(t *testing.T) {
	opt := tinyOptions()
	results, rep, err := IdealByApp(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(opt.Benchmarks) {
		t.Fatalf("results for %d benchmarks, want %d", len(results), len(opt.Benchmarks))
	}
	for _, r := range results {
		if err := r.Ideal.Validate(); err != nil {
			t.Fatalf("%s ideal invalid: %v", r.Benchmark, err)
		}
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if !strings.Contains(buf.String(), "Figure 1") || !strings.Contains(buf.String(), "Table 5") {
		t.Fatal("report missing sections")
	}
}

func TestIdealByLifetime(t *testing.T) {
	opt := tinyOptions()
	results, _, err := IdealByLifetime(context.Background(), "lbm", []float64{4, 8}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d rows", len(results))
	}
	for _, r := range results {
		if r.Ideal.WearQuota {
			t.Fatal("Table 4 protocol excludes wear quota")
		}
	}
}

func TestModelComparisonQuick(t *testing.T) {
	opt := tinyOptions()
	res, rep, err := ModelComparison(context.Background(), []int{10, 25}, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Models {
		acc := res.Acc[m]
		for tgt := 0; tgt < 3; tgt++ {
			for i, v := range acc[tgt] {
				if v < 0 || v > 1 {
					t.Fatalf("%s acc[%d][%d] = %v outside [0,1]", m, tgt, i, v)
				}
			}
		}
	}
	// The paper's Table 7 structure: offline and hbayes need offline
	// data; offline needs no online samples.
	if !res.NeedsOffline[ml.NameOffline] || !res.NeedsOffline[ml.NameHBayes] || res.NeedsOnline[ml.NameOffline] {
		t.Fatal("Table 7 columns wrong")
	}
	if len(res.FitMS) != len(res.Models) {
		t.Fatal("overheads missing")
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if !strings.Contains(buf.String(), "Table 7") {
		t.Fatal("report missing Table 7")
	}
}

func TestTopQuadraticFeatures(t *testing.T) {
	results, _, err := TopQuadraticFeatures(context.Background(), core.MetricIPC, 3, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if len(r.Top) == 0 || len(r.Top) > 3 {
			t.Fatalf("%s: %d ranked features", r.Benchmark, len(r.Top))
		}
		for _, f := range r.Top {
			if f.Name == "" || f.Weight == 0 {
				t.Fatalf("%s: empty ranked feature", r.Benchmark)
			}
		}
	}
}

func TestLassoCoefficients(t *testing.T) {
	results, _, err := LassoCoefficients(context.Background(), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		for tgt := 0; tgt < 3; tgt++ {
			if len(r.Coef[tgt]) != 5 {
				t.Fatalf("%s: %d coefficients, want 5", r.Benchmark, len(r.Coef[tgt]))
			}
		}
	}
}

func TestFeatureVsRandomSampling(t *testing.T) {
	results, _, err := FeatureVsRandomSampling(context.Background(), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Samples == 0 {
			t.Fatalf("%s: empty plan", r.Benchmark)
		}
		for tgt := 0; tgt < 3; tgt++ {
			if r.FeatureBased[tgt] < 0 || r.FeatureBased[tgt] > 1 || r.Random[tgt] < 0 || r.Random[tgt] > 1 {
				t.Fatalf("%s: accuracy out of range", r.Benchmark)
			}
		}
	}
}

func TestWearQuotaAblation(t *testing.T) {
	opt := tinyOptions()
	opt.Benchmarks = []string{"lbm"}
	results, _, err := WearQuotaAblation(context.Background(), 30, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatal("one benchmark expected")
	}
}

func TestPhaseDetectionExperiment(t *testing.T) {
	opt := tinyOptions()
	po := fig6PhaseOptions()
	res, rep, err := PhaseDetection(context.Background(), "ocean", 12_000_000, po, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no observation points")
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Fatal("report missing title")
	}
}

func TestMCTComparisonQuick(t *testing.T) {
	opt := tinyOptions()
	results, rep, err := MCTComparison(context.Background(), []string{ml.NameGBoost}, tinyInsts, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		out, ok := r.MCT[ml.NameGBoost]
		if !ok || out.Testing.Instructions == 0 {
			t.Fatalf("%s: missing MCT outcome", r.Benchmark)
		}
		// The deployed configuration must carry the wear-quota fixup.
		if !out.Chosen.WearQuota {
			t.Fatalf("%s: chosen config lacks wear-quota fixup: %v", r.Benchmark, out.Chosen)
		}
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if !strings.Contains(buf.String(), "GEOMEAN") || !strings.Contains(buf.String(), "Table 10") {
		t.Fatal("report incomplete")
	}
}

func TestLifetimeSensitivityQuick(t *testing.T) {
	opt := tinyOptions()
	results, _, err := LifetimeSensitivity(context.Background(), []string{"lbm"}, []float64{4, 10}, tinyInsts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d rows, want 2", len(results))
	}
	for _, r := range results {
		if r.MCT.Testing.Instructions == 0 {
			t.Fatal("missing MCT outcome")
		}
	}
}

func TestSamplingOverheadQuick(t *testing.T) {
	opt := tinyOptions()
	opt.Benchmarks = []string{"stream"}
	results, rep, err := SamplingOverhead(context.Background(), []float64{1, 10}, tinyInsts, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.SamplingIPCRatio <= 0 || r.TestingIPCRatio <= 0 {
		t.Fatalf("ratios degenerate: %+v", r)
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if !strings.Contains(buf.String(), "Equation 4") {
		t.Fatal("extrapolation table missing")
	}
}

func TestExtrapolateIPC(t *testing.T) {
	// Equation 4 sanity: α→∞ converges to the testing value; α=0 is the
	// sampling value.
	if got := ExtrapolateIPC(0.9, 1.1, 0); got != 0.9 {
		t.Fatalf("α=0: %v", got)
	}
	if got := ExtrapolateIPC(0.9, 1.1, 1e9); got < 1.0999 {
		t.Fatalf("α→∞: %v", got)
	}
	mid := ExtrapolateIPC(0.9, 1.1, 1)
	if mid != 1.0 {
		t.Fatalf("α=1: %v, want 1.0", mid)
	}
}

func TestMultiProgramQuick(t *testing.T) {
	opt := tinyOptions()
	results, rep, err := MultiProgram(context.Background(), []string{"mix3"}, 1_500_000, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if len(r.Members) != 4 || r.MCT.Instructions == 0 || r.Static.IPC <= 0 {
		t.Fatalf("mix result degenerate: %+v", r)
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if !strings.Contains(buf.String(), "Table 11") {
		t.Fatal("report missing Table 11")
	}
}

func TestWearQuotaLearningQuick(t *testing.T) {
	opt := tinyOptions()
	results, _, err := WearQuotaLearning(context.Background(), []string{"lbm"}, tinyInsts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Exclude.Instructions == 0 || results[0].Include.Instructions == 0 {
		t.Fatal("missing run results")
	}
}

func TestSpaceSummary(t *testing.T) {
	rep := SpaceSummary(tinyOptions())
	var buf bytes.Buffer
	rep.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "2030") || !strings.Contains(out, "4060") {
		t.Fatalf("space sizes missing from report:\n%s", out)
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	if len(IDs()) < 10 {
		t.Fatal("registry too small")
	}
	if _, err := Run(context.Background(), "nope", tinyOptions(), DefaultRunParams()); err == nil {
		t.Fatal("unknown id must error")
	}
	for alias, id := range aliases {
		if _, ok := experimentsByID[id]; !ok || slices.Contains(IDs(), alias) {
			t.Errorf("alias %s: target %s listed %v, alias listed %v", alias, id, ok, slices.Contains(IDs(), alias))
		}
	}
	// Run the cheapest entry through the registry for coverage.
	rep, err := Run(context.Background(), "space", tinyOptions(), DefaultRunParams())
	if err != nil || rep.ID != "space" {
		t.Fatalf("registry run failed: %v", err)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Title: "t", Header: []string{"a", "long-header"}}
	tbl.AddRow("x", "y")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== t ==") || !strings.Contains(out, "long-header") {
		t.Fatalf("table render wrong:\n%s", out)
	}
}

func TestNormalizationAblation(t *testing.T) {
	opt := tinyOptions()
	opt.Benchmarks = []string{"lbm"}
	res, _, err := NormalizationAblation(context.Background(), 25, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	for tgt := 0; tgt < 3; tgt++ {
		if r.Normalized[tgt] < 0 || r.Normalized[tgt] > 1 || r.Raw[tgt] < 0 || r.Raw[tgt] > 1 {
			t.Fatalf("accuracy out of range: %+v", r)
		}
	}
	// Energy on raw scales (~10⁻² J) is crushed by the fixed lasso
	// penalty; normalization must help.
	if r.Normalized[2] <= r.Raw[2] {
		t.Fatalf("normalization should improve energy accuracy: norm=%v raw=%v", r.Normalized[2], r.Raw[2])
	}
}

func TestSettleAblation(t *testing.T) {
	opt := tinyOptions()
	res, _, err := SettleAblation(context.Background(), []string{"stream"}, tinyInsts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].WithSettle.Instructions == 0 || res[0].WithoutSettle.Instructions == 0 {
		t.Fatal("missing run results")
	}
}

func TestPowerBudgetAblation(t *testing.T) {
	opt := tinyOptions()
	res, _, err := PowerBudgetAblation(context.Background(), []string{"stream"}, []int{2, 16}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatal("missing rows")
	}
	// A tighter power budget must make all-slow writes relatively more
	// expensive (or at least not cheaper).
	if res[0].SlowOverFast > res[1].SlowOverFast+0.02 {
		t.Fatalf("budget=2 slow/fast %v should not exceed budget=16 %v",
			res[0].SlowOverFast, res[1].SlowOverFast)
	}
}

func TestWearLevelValidation(t *testing.T) {
	opt := tinyOptions()
	opt.Benchmarks = []string{"zeusmp", "stream"}
	res, rep, err := WearLevelValidation(context.Background(), 50, 1<<10, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatal("missing rows")
	}
	for _, r := range res {
		if r.Writes == 0 {
			t.Fatalf("%s: no writes observed", r.Benchmark)
		}
		if r.Leveled < r.Unleveled-0.05 {
			t.Fatalf("%s: leveling made wear worse: %v vs %v", r.Benchmark, r.Leveled, r.Unleveled)
		}
		if r.Leveled <= 0 || r.Leveled > 1 {
			t.Fatalf("%s: efficiency %v out of range", r.Benchmark, r.Leveled)
		}
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if !strings.Contains(buf.String(), "Start-Gap") {
		t.Fatal("report missing title")
	}
}

func TestRetentionExtension(t *testing.T) {
	opt := tinyOptions()
	res, rep, err := RetentionExtension(context.Background(), []string{"stream"}, 8, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.SpaceSize == 0 || r.SamplesUsed >= r.SpaceSize {
		t.Fatalf("space/sample accounting wrong: %+v", r)
	}
	if r.IdealM.Throughput <= 0 || r.LearnedM.Throughput <= 0 {
		t.Fatal("degenerate throughputs")
	}
	// The learner should land within a sane factor of the ideal even at
	// tiny fidelity.
	if r.OfIdealThroughput < 0.5 {
		t.Fatalf("learned config far from ideal: %v", r.OfIdealThroughput)
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if !strings.Contains(buf.String(), "Extension") {
		t.Fatal("report missing title")
	}
}
