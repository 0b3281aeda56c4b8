package experiments

import (
	"context"
	"fmt"

	"mct/internal/config"
	"mct/internal/core"
	"mct/internal/ml"
	"mct/internal/rng"
	"mct/internal/sim"
)

// WearQuotaAblationResult holds the Figure 3 data for one benchmark: gboost
// prediction accuracy when the learning space excludes vs includes
// wear-quota configurations.
type WearQuotaAblationResult struct {
	Benchmark string
	// ExcludeWQ / IncludeWQ are R² per metric.
	ExcludeWQ [3]float64
	IncludeWQ [3]float64
}

// WearQuotaAblation reproduces Figure 3: including wear quota in the
// configuration space makes the targets harder to predict (the paper
// observes a 2–6% accuracy degradation), which is why MCT excludes it from
// learning and re-adds it as a fixup. Each R² is averaged over opt.Trials
// random training sets of samples rows.
func WearQuotaAblation(ctx context.Context, samples int, opt Options) ([]WearQuotaAblationResult, *Report, error) {
	if opt.Trials < 1 {
		return nil, nil, opt.errScale()
	}
	var results []WearQuotaAblationResult
	tbl := Table{
		Title:  "Figure 3: gboost R² excluding vs including wear quota in the learning space",
		Header: []string{"benchmark", "ipc_excl", "ipc_incl", "life_excl", "life_incl", "en_excl", "en_incl"},
	}

	newGBoost := func() (ml.Predictor, error) { return ml.NewGBoost(), nil }
	for _, bench := range opt.Benchmarks {
		emitf(opt, "fig3", bench, "fig3: %s", bench)
		swNo, err := RunSweep(ctx, bench, false, opt)
		if err != nil {
			return nil, nil, err
		}
		swWQ, err := RunSweep(ctx, bench, true, opt)
		if err != nil {
			return nil, nil, err
		}
		r := WearQuotaAblationResult{Benchmark: bench}
		// Fixed slice order (not a map literal): variant 0/1 must evaluate
		// in a deterministic sequence for the derived RNG streams and the
		// report rows to be reproducible.
		for variant, sw := range []*Sweep{swNo, swWQ} {
			X := sw.Vectors()
			rng := rng.Derive(opt.Seed, int64(variant))
			for t := 0; t < 3; t++ {
				acc, err := meanHeldOutR2(newGBoost, X, sw.Targets(core.Metric(t), true), samples, opt.Trials, rng)
				if err != nil {
					return nil, nil, err
				}
				if variant == 0 {
					r.ExcludeWQ[t] = acc
				} else {
					r.IncludeWQ[t] = acc
				}
			}
		}
		results = append(results, r)
		tbl.AddRow(bench,
			f3(r.ExcludeWQ[0]), f3(r.IncludeWQ[0]),
			f3(r.ExcludeWQ[1]), f3(r.IncludeWQ[1]),
			f3(r.ExcludeWQ[2]), f3(r.IncludeWQ[2]))
	}
	rep := &Report{ID: "fig3", Tables: []Table{tbl}}
	rep.Notes = append(rep.Notes, "paper observes 2–6% degradation when wear-quota configurations enter the learning space")
	return results, rep, nil
}

// WearQuotaLearningResult compares MCT end-to-end with wear quota excluded
// from learning (fixup only, MCT's design) versus included in the learning
// space (§6.2.3).
type WearQuotaLearningResult struct {
	Benchmark string
	// Exclude: learning space without wear quota + fixup (MCT default).
	Exclude sim.Metrics
	// Include: learning space with wear-quota configurations.
	Include sim.Metrics
}

// WearQuotaLearning reproduces §6.2.3's end-to-end comparison on the given
// benchmarks (the paper reports lbm and leslie3d).
func WearQuotaLearning(ctx context.Context, benchmarks []string, opt Options) ([]WearQuotaLearningResult, *Report, error) {
	if opt.TotalInsts == 0 {
		return nil, nil, opt.errScale()
	}
	var results []WearQuotaLearningResult
	tbl := Table{
		Title:  "§6.2.3: MCT testing-period metrics, wear quota excluded vs included in learning",
		Header: []string{"benchmark", "ipc_excl", "ipc_incl", "life_excl", "life_incl", "en_excl", "en_incl"},
	}
	for _, bench := range benchmarks {
		run := func(includeWQ bool) (sim.Metrics, error) {
			out, err := runMCT(ctx, bench, ml.NameGBoost, opt,
				func(ro *core.Options) {
					ro.Space = config.SpaceOptions{IncludeWearQuota: includeWQ, WearQuotaTarget: opt.LifetimeTarget}
				})
			return out.Testing, err
		}
		excl, err := run(false)
		if err != nil {
			return nil, nil, err
		}
		incl, err := run(true)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, WearQuotaLearningResult{Benchmark: bench, Exclude: excl, Include: incl})
		tbl.AddRow(bench, f3(excl.IPC), f3(incl.IPC),
			f2(excl.LifetimeYears), f2(incl.LifetimeYears),
			fmt.Sprintf("%.4g", excl.EnergyJ), fmt.Sprintf("%.4g", incl.EnergyJ))
		emitf(opt, "wq-learning", bench, "wq-learning: %s done", bench)
	}
	rep := &Report{ID: "wq-learning", Tables: []Table{tbl}}
	return results, rep, nil
}
