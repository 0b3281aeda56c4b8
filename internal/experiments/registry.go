package experiments

import (
	"context"
	"fmt"
	"sort"

	"mct/internal/ml"
	"mct/internal/phase"
)

// RunParams tunes the per-experiment knobs used by Run.
type RunParams struct {
	// TotalInsts is the MCT end-to-end run length.
	TotalInsts uint64
	// SampleCounts drives the Figure 2 convergence axis.
	SampleCounts []int
	// Trials averages stochastic experiments.
	Trials int
}

// DefaultRunParams returns the standard experiment scales.
func DefaultRunParams() RunParams {
	return RunParams{
		TotalInsts:   15_000_000,
		SampleCounts: []int{10, 20, 40, 77, 120, 160, 200},
		Trials:       3,
	}
}

// QuickRunParams returns the reduced scales that go with QuickOptions.
func QuickRunParams() RunParams {
	return RunParams{
		TotalInsts:   8_000_000,
		SampleCounts: []int{10, 20, 40, 77, 120},
		Trials:       2,
	}
}

// fig6PhaseOptions scales the paper's detector (I=1M, 100/1000 windows) to
// the simulator's trace lengths while keeping the ratios' spirit: dramatic
// phases must dominate the short window.
func fig6PhaseOptions() phase.Options {
	return phase.Options{IntervalInsts: 25_000, ShortWindows: 40, LongWindows: 400, Threshold: 15}
}

// runner runs one experiment and returns its report.
type runner func(ctx context.Context, opt Options, rp RunParams) (*Report, error)

// report drops an experiment's typed result and keeps its report.
func report[T any](_ T, rep *Report, err error) (*Report, error) { return rep, err }

// experimentsByID is the one list of experiments: Run dispatches on it
// and IDs lists it.
var experimentsByID = map[string]runner{
	"space": func(_ context.Context, opt Options, _ RunParams) (*Report, error) {
		return SpaceSummary(opt), nil
	},
	"table4": func(ctx context.Context, opt Options, _ RunParams) (*Report, error) {
		return report(IdealByLifetime(ctx, "leslie3d", []float64{4, 6, 8, 10}, opt))
	},
	"fig1": func(ctx context.Context, opt Options, _ RunParams) (*Report, error) {
		return report(IdealByApp(ctx, opt))
	},
	"table6": func(ctx context.Context, opt Options, _ RunParams) (*Report, error) {
		return report(TopQuadraticFeatures(ctx, 0 /* IPC */, 3, opt))
	},
	"fig2": func(ctx context.Context, opt Options, rp RunParams) (*Report, error) {
		return report(ModelComparison(ctx, rp.SampleCounts, rp.Trials, opt))
	},
	"fig3": func(ctx context.Context, opt Options, rp RunParams) (*Report, error) {
		return report(WearQuotaAblation(ctx, 77, rp.Trials, opt))
	},
	"fig4a": func(ctx context.Context, opt Options, _ RunParams) (*Report, error) {
		return report(LassoCoefficients(ctx, opt))
	},
	"fig4b": func(ctx context.Context, opt Options, _ RunParams) (*Report, error) {
		return report(FeatureVsRandomSampling(ctx, opt))
	},
	"fig6": func(ctx context.Context, opt Options, _ RunParams) (*Report, error) {
		return report(PhaseDetection(ctx, "ocean", 40_000_000, fig6PhaseOptions(), opt))
	},
	"fig7": func(ctx context.Context, opt Options, rp RunParams) (*Report, error) {
		return report(MCTComparison(ctx, []string{ml.NameGBoost, ml.NameQuadraticLasso}, rp.TotalInsts, opt))
	},
	"fig8": func(ctx context.Context, opt Options, rp RunParams) (*Report, error) {
		benches := []string{"lbm", "leslie3d", "GemsFDTD", "stream"}
		return report(LifetimeSensitivity(ctx, benches, []float64{4, 6, 8, 10}, rp.TotalInsts, opt))
	},
	"fig9": func(ctx context.Context, opt Options, rp RunParams) (*Report, error) {
		return report(SamplingOverhead(ctx, nil, rp.TotalInsts, opt))
	},
	"fig10": func(ctx context.Context, opt Options, rp RunParams) (*Report, error) {
		return report(MultiProgram(ctx, nil, rp.TotalInsts, opt))
	},
	"wq-learning": func(ctx context.Context, opt Options, rp RunParams) (*Report, error) {
		return report(WearQuotaLearning(ctx, []string{"lbm", "leslie3d"}, rp.TotalInsts, opt))
	},
	"ablation-norm": func(ctx context.Context, opt Options, rp RunParams) (*Report, error) {
		return report(NormalizationAblation(ctx, 77, rp.Trials, opt))
	},
	"ablation-settle": func(ctx context.Context, opt Options, rp RunParams) (*Report, error) {
		return report(SettleAblation(ctx, []string{"lbm", "stream", "gups"}, rp.TotalInsts, opt))
	},
	"extension-retention": func(ctx context.Context, opt Options, _ RunParams) (*Report, error) {
		return report(RetentionExtension(ctx, []string{"lbm", "stream", "zeusmp"}, opt.LifetimeTarget, opt))
	},
	"validate-wearlevel": func(ctx context.Context, opt Options, _ RunParams) (*Report, error) {
		return report(WearLevelValidation(ctx, 0, 0, opt))
	},
	"ablation-power": func(ctx context.Context, opt Options, _ RunParams) (*Report, error) {
		return report(PowerBudgetAblation(ctx, []string{"lbm", "stream", "zeusmp"}, nil, opt))
	},
	"hybrid-tier": func(ctx context.Context, opt Options, _ RunParams) (*Report, error) {
		return report(HybridTier(ctx, opt))
	},
}

// aliases are the paper's table names for experiments listed under a
// figure's ID; Run accepts them and IDs does not list them.
var aliases = map[string]string{
	"table5": "fig1", "table7": "fig2", "fig4": "fig4b", "table10": "fig7", "table11": "fig10",
}

// Run executes one experiment by ID and returns its report. Valid IDs are
// listed by IDs(). Cancelling ctx aborts the experiment with ctx.Err();
// opt.Workers bounds the parallelism of its sweeps and driver fan-out.
// A nil opt.Sweeps gets one in-memory SweepCache for this call.
func Run(ctx context.Context, id string, opt Options, rp RunParams) (*Report, error) {
	if to, ok := aliases[id]; ok {
		id = to
	}
	run, ok := experimentsByID[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	if opt.Sweeps == nil {
		opt.Sweeps = NewSweepCache("")
	}
	return run(ctx, opt, rp)
}

// IDs returns the experiment IDs accepted by Run, sorted; aliases are not
// listed.
func IDs() []string {
	ids := make([]string, 0, len(experimentsByID))
	for id := range experimentsByID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
