package experiments

import (
	"context"
	"fmt"

	"mct/internal/config"
	"mct/internal/core"
	"mct/internal/ml"
	"mct/internal/rng"
	"mct/internal/sampling"
)

// compressedRows returns the 5-feature (§4.4) encodings of a sweep.
func compressedRows(sw *Sweep) [][]float64 {
	X := make([][]float64, len(sw.Indices))
	for i, idx := range sw.Indices {
		X[i] = sw.Space.At(idx).Compressed()
	}
	return X
}

// RankedFeature is one entry of a Table 6 ranking.
type RankedFeature struct {
	Name   string
	Weight float64
}

// TopFeaturesResult holds one benchmark's Table 6 row.
type TopFeaturesResult struct {
	Benchmark string
	Metric    core.Metric
	Top       []RankedFeature
}

// TopQuadraticFeatures reproduces Table 6: the most effective quadratic
// features per application, ranked by the magnitude of quadratic-lasso
// coefficients fitted on the (compressed-feature) ground truth.
func TopQuadraticFeatures(ctx context.Context, metric core.Metric, topN int, opt Options) ([]TopFeaturesResult, *Report, error) {
	if topN <= 0 {
		topN = 3
	}
	names := ml.QuadraticNames(config.CompressedNames())
	var results []TopFeaturesResult
	tbl := Table{
		Title:  fmt.Sprintf("Table 6: top-%d quadratic-lasso features per application (target: %v)", topN, metric),
		Header: []string{"benchmark", "rank", "feature", "weight"},
	}
	for _, bench := range opt.Benchmarks {
		sw, err := RunSweep(ctx, bench, false, opt)
		if err != nil {
			return nil, nil, err
		}
		lasso := ml.NewQuadraticLasso(ml.DefaultLassoLambda)
		if err := lasso.Fit(compressedRows(sw), sw.Targets(metric, true)); err != nil {
			return nil, nil, err
		}
		w, _ := lasso.Coefficients()
		r := TopFeaturesResult{Benchmark: bench, Metric: metric}
		ranked := rankCoefficients(w, nil)
		for k, j := range ranked[:min(topN, len(ranked))] {
			r.Top = append(r.Top, RankedFeature{Name: names[j], Weight: w[j]})
			sign := "+"
			if w[j] < 0 {
				sign = "-"
			}
			tbl.AddRow(bench, fmt.Sprintf("%d", k+1), sign+names[j], f4(w[j]))
		}
		results = append(results, r)
	}
	rep := &Report{ID: "table6", Tables: []Table{tbl}}
	rep.Notes = append(rep.Notes, "weights are on standardized features; sign shows impact direction, magnitude shows effectiveness")
	return results, rep, nil
}

// LassoCoefficientsResult holds Figure 4a data for one benchmark: linear
// lasso coefficients on the five compressed features, per objective.
type LassoCoefficientsResult struct {
	Benchmark string
	// Coef[metric][feature]; features ordered as config.CompressedNames().
	Coef [3][]float64
}

// LassoCoefficients reproduces Figure 4a: linear-model lasso coefficients
// of the compressed features. The paper's finding: bank_aware and
// eager_writebacks coefficients are near zero for all objectives of all
// applications, leaving fast_latency, slow_latency and cancellation as the
// three primary features.
func LassoCoefficients(ctx context.Context, opt Options) ([]LassoCoefficientsResult, *Report, error) {
	var results []LassoCoefficientsResult
	names := config.CompressedNames()
	tbl := Table{Title: "Figure 4a: linear lasso coefficients (standardized features)"}
	tbl.Header = append([]string{"benchmark", "objective"}, names...)

	metricNames := []string{"IPC", "lifetime", "energy"}
	for _, bench := range opt.Benchmarks {
		sw, err := RunSweep(ctx, bench, false, opt)
		if err != nil {
			return nil, nil, err
		}
		X := compressedRows(sw)
		r := LassoCoefficientsResult{Benchmark: bench}
		for t := 0; t < 3; t++ {
			lasso := ml.NewLinearLasso(ml.DefaultLassoLambda)
			if err := lasso.Fit(X, sw.Targets(core.Metric(t), true)); err != nil {
				return nil, nil, err
			}
			w, _ := lasso.Coefficients()
			r.Coef[t] = w
			row := []string{bench, metricNames[t]}
			for _, v := range w {
				row = append(row, f4(v))
			}
			tbl.AddRow(row...)
		}
		results = append(results, r)
	}
	rep := &Report{ID: "fig4a", Tables: []Table{tbl}}
	return results, rep, nil
}

// SamplingAccuracyResult holds Figure 4b data for one benchmark.
type SamplingAccuracyResult struct {
	Benchmark string
	// R² per metric for feature-based and random sampling with matched
	// sample counts.
	FeatureBased [3]float64
	Random       [3]float64
	Samples      int
}

// FeatureVsRandomSampling reproduces Figure 4b: gradient-boosting accuracy
// when trained on the feature-based sample set versus an equally sized
// random sample set.
func FeatureVsRandomSampling(ctx context.Context, opt Options) ([]SamplingAccuracyResult, *Report, error) {
	var results []SamplingAccuracyResult
	tbl := Table{
		Title:  "Figure 4b: gboost R², feature-based vs random sampling",
		Header: []string{"benchmark", "n", "ipc_fb", "ipc_rand", "life_fb", "life_rand", "en_fb", "en_rand"},
	}
	for _, bench := range opt.Benchmarks {
		sw, err := RunSweep(ctx, bench, false, opt)
		if err != nil {
			return nil, nil, err
		}
		// Sample plans are built over the swept subset: treat positions in
		// the sweep as the space (the strided sweep is itself a space
		// subsample in quick runs).
		posOf := make(map[int]int, len(sw.Indices))
		for pos, idx := range sw.Indices {
			posOf[idx] = pos
		}
		fbPlan := sampling.FeatureBased(sw.Space, rng.New(opt.Seed))
		var fbPos []int
		for _, idx := range fbPlan.Indices {
			if p, ok := posOf[idx]; ok {
				fbPos = append(fbPos, p)
			}
		}
		if len(fbPos) < 4 {
			// Strided sweep too sparse to contain the grid; sample from
			// what we have.
			for p := 0; p < len(sw.Indices) && len(fbPos) < 16; p += 3 {
				fbPos = append(fbPos, p)
			}
		}
		rndPlan := sampling.Random(sw.Space, len(fbPos), rng.Derive(opt.Seed, 9))
		var rndPos []int
		for _, idx := range rndPlan.Indices {
			if p, ok := posOf[idx]; ok {
				rndPos = append(rndPos, p)
			}
		}
		for p := 0; len(rndPos) < len(fbPos) && p < len(sw.Indices); p += 7 {
			rndPos = append(rndPos, p)
		}

		X := sw.Vectors()
		r := SamplingAccuracyResult{Benchmark: bench, Samples: len(fbPos)}
		for t := 0; t < 3; t++ {
			truth := sw.Targets(core.Metric(t), true)
			fb, err := heldOutR2(ml.NewGBoost(), X, truth, fbPos)
			if err != nil {
				return nil, nil, err
			}
			rnd, err := heldOutR2(ml.NewGBoost(), X, truth, rndPos[:min(len(rndPos), len(fbPos))])
			if err != nil {
				return nil, nil, err
			}
			r.FeatureBased[t], r.Random[t] = fb, rnd
		}
		results = append(results, r)
		tbl.AddRow(bench, fmt.Sprintf("%d", r.Samples),
			f3(r.FeatureBased[0]), f3(r.Random[0]),
			f3(r.FeatureBased[1]), f3(r.Random[1]),
			f3(r.FeatureBased[2]), f3(r.Random[2]))
		emitf(opt, "fig4b", bench, "fig4b: %s done", bench)
	}
	rep := &Report{ID: "fig4b", Tables: []Table{tbl}}
	return results, rep, nil
}
