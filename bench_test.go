package mct_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates the experiment's artifact
// through the same driver as `mctbench -experiment <id>` and reports
// domain-specific metrics (geomean IPC gains, prediction accuracies, etc.)
// via b.ReportMetric, so `go test -bench=.` reproduces the whole evaluation
// at reduced fidelity. For full fidelity run `go run ./cmd/mctbench`.

import (
	"context"
	"fmt"
	"testing"

	"mct"
	"mct/internal/core"
	"mct/internal/experiments"
	"mct/internal/ml"
	"mct/internal/sim"
	"mct/internal/stats"
	"mct/internal/trace"
)

// benchOptions is the reduced-fidelity configuration used by the bench
// harness: a strided configuration space, short traces and MCT runs, and
// one trial keep every benchmark in the seconds range on one core.
func benchOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Accesses = 10_000
	o.Stride = 29
	o.TotalInsts = 6_000_000
	o.Trials = 1
	return o
}

// BenchmarkConfigSpace regenerates the Tables 2/3 space accounting.
func BenchmarkConfigSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.SpaceSummary(benchOptions())
		if len(rep.Tables) == 0 {
			b.Fatal("empty report")
		}
	}
	b.ReportMetric(float64(mct.NewSpace(mct.SpaceOptions{IncludeWearQuota: true}).Len()), "configs")
}

// BenchmarkTable4IdealByLifetime regenerates Table 4: ideal configurations
// of leslie3d across lifetime targets (no wear quota).
func BenchmarkTable4IdealByLifetime(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.IdealByLifetime(context.Background(), "leslie3d", []float64{4, 6, 8, 10}, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 4 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkFig1IdealVsStatic regenerates Figure 1 / Table 5: per-app
// default vs static vs brute-force ideal.
func BenchmarkFig1IdealVsStatic(b *testing.B) {
	opt := benchOptions()
	var gain float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.IdealByApp(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		var ratios []float64
		for _, r := range res {
			ratios = append(ratios, r.IdealM.IPC/r.Baseline.IPC)
		}
		gain = geo(ratios)
	}
	b.ReportMetric(gain, "ideal/static-IPC")
}

// BenchmarkTable6TopFeatures regenerates Table 6: top quadratic-lasso
// features per application.
func BenchmarkTable6TopFeatures(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"lbm", "leslie3d", "GemsFDTD", "stream"}
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.TopQuadraticFeatures(context.Background(), core.MetricIPC, 3, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 4 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkFig2ModelComparison regenerates Figure 2 / Table 7: predictor
// accuracy and convergence versus sample count, plus measured overheads.
func BenchmarkFig2ModelComparison(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"lbm", "stream", "milc"}
	opt.SampleCounts = []int{20, 77}
	var gbAcc float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.ModelComparison(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		acc := res.Acc[ml.NameGBoost]
		gbAcc = (acc[0][1] + acc[1][1] + acc[2][1]) / 3
	}
	b.ReportMetric(gbAcc, "gboost-R2@77")
}

// BenchmarkFig3WearQuotaAblation regenerates Figure 3: prediction accuracy
// with wear quota excluded vs included in the learning space.
func BenchmarkFig3WearQuotaAblation(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"lbm"}
	var degr float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.WearQuotaAblation(context.Background(), 60, opt)
		if err != nil {
			b.Fatal(err)
		}
		r := res[0]
		degr = (r.ExcludeWQ[0] - r.IncludeWQ[0] + r.ExcludeWQ[2] - r.IncludeWQ[2]) / 2
	}
	b.ReportMetric(degr, "R2-degradation")
}

// BenchmarkFig4FeatureSampling regenerates Figure 4: lasso feature
// selection and feature-based vs random sampling accuracy.
func BenchmarkFig4FeatureSampling(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"lbm", "stream"}
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.LassoCoefficients(context.Background(), opt); err != nil {
			b.Fatal(err)
		}
		res, _, err := experiments.FeatureVsRandomSampling(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 2 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkFig6PhaseDetection regenerates Figure 6: t-test phase detection
// on ocean.
func BenchmarkFig6PhaseDetection(b *testing.B) {
	opt := benchOptions()
	var detected float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.PhaseDetection(context.Background(), "ocean", 25_000_000, 25_000, opt)
		if err != nil {
			b.Fatal(err)
		}
		detected = float64(res.Detected)
	}
	b.ReportMetric(detected, "phases-detected")
}

// BenchmarkFig7MCTvsBaselines regenerates Figure 7 / Table 10: the headline
// result — MCT against default, static and ideal policies.
func BenchmarkFig7MCTvsBaselines(b *testing.B) {
	opt := benchOptions()
	var gain float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.MCTComparison(context.Background(), []string{ml.NameGBoost}, opt)
		if err != nil {
			b.Fatal(err)
		}
		var ratios []float64
		for _, r := range res {
			ratios = append(ratios, r.MCT[ml.NameGBoost].Testing.IPC/r.Static.IPC)
		}
		gain = geo(ratios)
	}
	b.ReportMetric(gain, "MCT/static-IPC")
}

// BenchmarkFig8LifetimeSensitivity regenerates Figure 8: MCT across
// lifetime targets.
func BenchmarkFig8LifetimeSensitivity(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.LifetimeSensitivity(context.Background(), []string{"lbm", "stream"}, []float64{4, 8, 10}, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 6 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkFig9SamplingOverhead regenerates Figure 9: sampling-period
// overhead and the Equation 4 extrapolation.
func BenchmarkFig9SamplingOverhead(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"lbm", "stream"}
	var sampling float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.SamplingOverhead(context.Background(), []float64{1, 10}, opt)
		if err != nil {
			b.Fatal(err)
		}
		var r []float64
		for _, x := range res {
			r = append(r, x.SamplingIPCRatio)
		}
		sampling = geo(r)
	}
	b.ReportMetric(sampling, "sampling/static-IPC")
}

// BenchmarkFig10MultiProgram regenerates Figure 10 / Table 11: 4-core
// multi-program MCT.
func BenchmarkFig10MultiProgram(b *testing.B) {
	opt := benchOptions()
	opt.TotalInsts = 4_000_000
	var gain float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.MultiProgram(context.Background(), []string{"mix1", "mix3"}, opt)
		if err != nil {
			b.Fatal(err)
		}
		var ratios []float64
		for _, r := range res {
			ratios = append(ratios, r.MCT.IPC/r.Static.IPC)
		}
		gain = geo(ratios)
	}
	b.ReportMetric(gain, "MCT/static-IPC")
}

// BenchmarkWearQuotaLearning regenerates §6.2.3: wear quota excluded vs
// included in the learning space, end to end.
func BenchmarkWearQuotaLearning(b *testing.B) {
	opt := benchOptions()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.WearQuotaLearning(context.Background(), []string{"lbm"}, opt)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res[0].Include.IPC / res[0].Exclude.IPC
	}
	b.ReportMetric(ratio, "incl/excl-IPC")
}

// BenchmarkAblationNormalization quantifies the §4.4 normalization
// technique: quadratic-lasso accuracy on baseline-normalized vs raw-scale
// targets.
func BenchmarkAblationNormalization(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"lbm"}
	var gain float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.NormalizationAblation(context.Background(), 60, opt)
		if err != nil {
			b.Fatal(err)
		}
		gain = res[0].Normalized[2] - res[0].Raw[2]
	}
	b.ReportMetric(gain, "energy-R2-gain")
}

// BenchmarkAblationSettle quantifies the settle window after sample
// configuration switches.
func BenchmarkAblationSettle(b *testing.B) {
	opt := benchOptions()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.SettleAblation(context.Background(), []string{"lbm"}, opt)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res[0].WithSettle.IPC / res[0].WithoutSettle.IPC
	}
	b.ReportMetric(ratio, "settle/none-IPC")
}

// BenchmarkAblationPowerBudget characterizes the write-power budget
// substitution (slow-write cost vs concurrent-write budget).
func BenchmarkAblationPowerBudget(b *testing.B) {
	opt := benchOptions()
	var spread float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.PowerBudgetAblation(context.Background(), []string{"stream"}, []int{2, 16}, opt)
		if err != nil {
			b.Fatal(err)
		}
		spread = res[1].SlowOverFast - res[0].SlowOverFast
	}
	b.ReportMetric(spread, "budget-IPC-spread")
}

// BenchmarkWearLevelValidation validates the Table 9 wear-leveling
// assumption with a real Start-Gap leveler.
func BenchmarkWearLevelValidation(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"zeusmp", "stream"}
	var eff float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.WearLevelValidation(context.Background(), 100, 1<<12, opt)
		if err != nil {
			b.Fatal(err)
		}
		var v []float64
		for _, r := range res {
			v = append(v, r.Leveled)
		}
		eff = geo(v)
	}
	b.ReportMetric(eff, "leveling-efficiency")
}

// BenchmarkExtensionRetention demonstrates §4.4's generality claim: the
// MCT pipeline optimizing the write-latency-vs-retention technique.
func BenchmarkExtensionRetention(b *testing.B) {
	opt := benchOptions()
	var ofIdeal float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.RetentionExtension(context.Background(), []string{"stream"}, 8, opt)
		if err != nil {
			b.Fatal(err)
		}
		ofIdeal = res[0].OfIdealThroughput
	}
	b.ReportMetric(ofIdeal, "of-ideal-throughput")
}

// --- Micro-benchmarks of the substrates (testing.B in the classic sense).

// BenchmarkSimulatorThroughput measures raw simulation speed in accesses/s.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, err := trace.ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.NewMachine(spec, mct.StaticBaseline(), sim.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	m.Warmup(60_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunInstructions(10_000)
	}
}

// BenchmarkGBoostFit measures the online training cost at the paper's
// 77-sample operating point.
func BenchmarkGBoostFit(b *testing.B) {
	space := mct.NewSpace(mct.SpaceOptions{})
	X := make([][]float64, 77)
	y := make([]float64, 77)
	for i := range X {
		c := space.At(i * space.Len() / 77)
		X[i] = c.Vector()
		y[i] = c.FastLatency + c.SlowLatency
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb := ml.NewGBoost()
		if err := gb.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuadraticLassoFit measures the quadratic-lasso training cost.
func BenchmarkQuadraticLassoFit(b *testing.B) {
	space := mct.NewSpace(mct.SpaceOptions{})
	X := make([][]float64, 77)
	y := make([]float64, 77)
	for i := range X {
		c := space.At(i * space.Len() / 77)
		X[i] = c.Vector()
		y[i] = c.FastLatency * c.SlowLatency
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := ml.NewQuadraticLasso(ml.DefaultLassoLambda)
		if err := l.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictSpace measures predicting the full configuration space
// (the per-decision inference cost of MCT).
func BenchmarkPredictSpace(b *testing.B) {
	space := mct.NewSpace(mct.SpaceOptions{})
	X := make([][]float64, 77)
	y := make([]float64, 77)
	for i := range X {
		c := space.At(i * space.Len() / 77)
		X[i] = c.Vector()
		y[i] = c.FastLatency
	}
	gb := ml.NewGBoost()
	if err := gb.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < space.Len(); j++ {
			gb.Predict(space.At(j).Vector())
		}
	}
}

// BenchmarkEvaluateWarmClone measures one configuration evaluation on the
// warm-start fast path: clone the shared warmed machine, reconfigure, replay
// only the measurement window.
func BenchmarkEvaluateWarmClone(b *testing.B) {
	p, err := sim.Prepare("lbm", 0, 10_000, sim.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	cfg := mct.StaticBaseline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Evaluate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateBatch measures sim.MaxBatch configuration evaluations
// stepped together: one fork of the shared warmed machine and one LLC tag
// pass fan out to a lane per configuration. Divide its time per op by
// sim.MaxBatch to compare with BenchmarkEvaluateWarmClone;
// sim.TestLaneFanOutZeroAllocs holds the fan-out loop at 0 allocs/op.
func BenchmarkEvaluateBatch(b *testing.B) {
	p, err := sim.Prepare("lbm", 0, 10_000, sim.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	space := mct.NewSpace(mct.SpaceOptions{})
	cfgs := make([]mct.Config, sim.MaxBatch)
	for k := range cfgs {
		cfgs[k] = space.At(k * space.Len() / len(cfgs))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.EvaluateBatch(cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateBatchWidth evaluates the same sim.MaxBatch gups
// configurations one lane at a time (width=1) and all in one batch
// (width=8), in ns per lane-access: each configuration's measured accesses
// count once. The batch amortizes the shared LLC probe over its lanes, so
// a width-8 figure above the width-1 one means the lanes' own state (dirty
// masks, controllers) has outgrown the cache. It is reported, not gated.
func BenchmarkEvaluateBatchWidth(b *testing.B) {
	const accesses = 10_000
	p, err := sim.Prepare("gups", 0, accesses, sim.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	space := mct.NewSpace(mct.SpaceOptions{})
	cfgs := make([]mct.Config, sim.MaxBatch)
	for k := range cfgs {
		cfgs[k] = space.At(k * space.Len() / len(cfgs))
	}
	for _, width := range []int{1, sim.MaxBatch} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			if _, err := p.EvaluateBatch(cfgs[:1]); err != nil { // builds the shared window
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < len(cfgs); k += width {
					if _, err := p.EvaluateBatch(cfgs[k : k+width]); err != nil {
						b.Fatal(err)
					}
				}
			}
			laneAccesses := float64(b.N) * float64(len(cfgs)*accesses)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/laneAccesses, "ns/lane-access")
		})
	}
}

func geo(xs []float64) float64 { return stats.GeoMean(xs) }
