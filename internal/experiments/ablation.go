package experiments

import (
	"context"
	"errors"
	"fmt"

	"mct/internal/config"
	"mct/internal/core"
	"mct/internal/ml"
	"mct/internal/rng"
	"mct/internal/sim"
)

// NormalizationAblationResult holds one benchmark's raw-vs-normalized
// accuracy comparison.
type NormalizationAblationResult struct {
	Benchmark string
	// R² per metric with targets normalized to the baseline (§4.4) vs fit
	// on raw target scales, for the regularized quadratic-lasso model
	// (regularization strength is scale-sensitive, so normalization
	// matters; tree ensembles are scale-robust).
	Normalized [3]float64
	Raw        [3]float64
}

// NormalizationAblation quantifies the §4.4 "Normalization" technique: with
// a fixed lasso penalty, targets on raw physical scales (e.g. joules ≈
// 10⁻²) are crushed by the regularizer, while baseline-normalized targets
// (≈1) fit well. Each R² is averaged over opt.Trials random training sets
// of samples rows.
func NormalizationAblation(ctx context.Context, samples int, opt Options) ([]NormalizationAblationResult, *Report, error) {
	if opt.Trials < 1 {
		return nil, nil, opt.errScale()
	}
	var results []NormalizationAblationResult
	tbl := Table{
		Title:  "Ablation (§4.4): quadratic-lasso R² with baseline-normalized vs raw targets",
		Header: []string{"benchmark", "ipc_norm", "ipc_raw", "life_norm", "life_raw", "en_norm", "en_raw"},
	}
	newLasso := func() (ml.Predictor, error) { return ml.NewQuadraticLasso(ml.DefaultLassoLambda), nil }
	for _, bench := range opt.Benchmarks {
		sw, err := RunSweep(ctx, bench, false, opt)
		if err != nil {
			return nil, nil, err
		}
		X := sw.Vectors()
		r := NormalizationAblationResult{Benchmark: bench}
		rng := rng.Derive(opt.Seed, 31)
		for t := 0; t < 3; t++ {
			for variant := 0; variant < 2; variant++ {
				acc, err := meanHeldOutR2(newLasso, X, sw.Targets(core.Metric(t), variant == 0), samples, opt.Trials, rng)
				if err != nil {
					return nil, nil, err
				}
				if variant == 0 {
					r.Normalized[t] = acc
				} else {
					r.Raw[t] = acc
				}
			}
		}
		results = append(results, r)
		tbl.AddRow(bench,
			f3(r.Normalized[0]), f3(r.Raw[0]),
			f3(r.Normalized[1]), f3(r.Raw[1]),
			f3(r.Normalized[2]), f3(r.Raw[2]))
		emitf(opt, "ablation-norm", bench, "ablation-norm: %s done", bench)
	}
	rep := &Report{ID: "ablation-norm", Tables: []Table{tbl}}
	return results, rep, nil
}

// SettleAblationResult compares MCT with and without the settle sub-window
// after sample configuration switches.
type SettleAblationResult struct {
	Benchmark     string
	WithSettle    sim.Metrics // testing period
	WithoutSettle sim.Metrics
}

// SettleAblation quantifies this implementation's settle-window design
// choice: without it, queued writes issued under the previous sample's
// policy contaminate the next sample's labels, degrading the learned
// decision.
func SettleAblation(ctx context.Context, benchmarks []string, opt Options) ([]SettleAblationResult, *Report, error) {
	if opt.TotalInsts == 0 {
		return nil, nil, opt.errScale()
	}
	var results []SettleAblationResult
	tbl := Table{
		Title:  "Ablation: sample settle window (testing-period metrics)",
		Header: []string{"benchmark", "ipc_settle", "ipc_none", "life_settle", "life_none"},
	}
	for _, bench := range benchmarks {
		run := func(frac float64) (sim.Metrics, error) {
			out, err := runMCT(ctx, bench, ml.NameGBoost, opt,
				func(ro *core.Options) { ro.SampleSettleFrac = frac })
			return out.Testing, err
		}
		with, err := run(0.2)
		if err != nil {
			return nil, nil, err
		}
		without, err := run(0)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, SettleAblationResult{Benchmark: bench, WithSettle: with, WithoutSettle: without})
		tbl.AddRow(bench, f3(with.IPC), f3(without.IPC), f2(with.LifetimeYears), f2(without.LifetimeYears))
	}
	rep := &Report{ID: "ablation-settle", Tables: []Table{tbl}}
	return results, rep, nil
}

// PowerBudgetAblationResult characterizes the write-power token pool: how
// the IPC cost of slow writes depends on the concurrent-write budget.
type PowerBudgetAblationResult struct {
	Benchmark string
	Budget    int
	// IPC of the all-slow (3×) configuration relative to the default
	// system under the same budget.
	SlowOverFast float64
}

// PowerBudgetAblation quantifies the simulator's write-power budget
// substitution (see DESIGN.md): with a small concurrent-write budget, slow
// writes consume scarce write bandwidth and cost real performance — the
// tension the mellow-writes techniques negotiate.
func PowerBudgetAblation(ctx context.Context, benchmarks []string, budgets []int, opt Options) ([]PowerBudgetAblationResult, *Report, error) {
	if len(budgets) == 0 {
		return nil, nil, errors.New("experiments: PowerBudgetAblation: no write-power budgets")
	}
	var results []PowerBudgetAblationResult
	tbl := Table{
		Title:  "Ablation: write-power budget (IPC of all-slow 3x writes relative to default)",
		Header: []string{"benchmark", "budget", "slow/fast IPC"},
	}
	slowCfg := config.Default()
	slowCfg.FastLatency = 3.0
	slowCfg.SlowLatency = 3.0
	for _, bench := range benchmarks {
		for _, budget := range budgets {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			simOpt := opt.seededSim()
			simOpt.Params.MaxConcurrentWrites = budget
			prep, err := sim.Prepare(bench, 0, opt.Accesses, simOpt)
			if err != nil {
				return nil, nil, err
			}
			fast, err := prep.Evaluate(config.Default())
			if err != nil {
				return nil, nil, err
			}
			slow, err := prep.Evaluate(slowCfg)
			if err != nil {
				return nil, nil, err
			}
			r := PowerBudgetAblationResult{Benchmark: bench, Budget: budget, SlowOverFast: slow.IPC / fast.IPC}
			results = append(results, r)
			tbl.AddRow(bench, fmt.Sprintf("%d", budget), f3(r.SlowOverFast))
		}
	}
	rep := &Report{ID: "ablation-power", Tables: []Table{tbl}}
	rep.Notes = append(rep.Notes, "smaller budgets make slow writes costlier, widening the performance/lifetime tradeoff the learner navigates")
	return results, rep, nil
}
