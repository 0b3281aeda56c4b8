package experiments

import (
	"context"
	"fmt"
	"sort"

	"mct/internal/ml"
	"mct/internal/phase"
	"mct/internal/trace"
)

// runner runs one experiment and returns its report.
type runner func(ctx context.Context, opt Options) (*Report, error)

// report drops an experiment's typed result and keeps its report.
func report[T any](_ T, rep *Report, err error) (*Report, error) { return rep, err }

// experimentsByID is the one list of experiments: Run dispatches on it
// and IDs lists it.
var experimentsByID = map[string]runner{
	"space": func(_ context.Context, opt Options) (*Report, error) {
		return SpaceSummary(opt), nil
	},
	"table4": func(ctx context.Context, opt Options) (*Report, error) {
		return report(IdealByLifetime(ctx, "leslie3d", []float64{4, 6, 8, 10}, opt))
	},
	"fig1": func(ctx context.Context, opt Options) (*Report, error) {
		return report(IdealByApp(ctx, opt))
	},
	"table6": func(ctx context.Context, opt Options) (*Report, error) {
		return report(TopQuadraticFeatures(ctx, 0 /* IPC */, 3, opt))
	},
	"fig2": func(ctx context.Context, opt Options) (*Report, error) {
		return report(ModelComparison(ctx, opt))
	},
	"fig3": func(ctx context.Context, opt Options) (*Report, error) {
		return report(WearQuotaAblation(ctx, 77, opt))
	},
	"fig4a": func(ctx context.Context, opt Options) (*Report, error) {
		return report(LassoCoefficients(ctx, opt))
	},
	"fig4b": func(ctx context.Context, opt Options) (*Report, error) {
		return report(FeatureVsRandomSampling(ctx, opt))
	},
	"fig6": func(ctx context.Context, opt Options) (*Report, error) {
		return report(PhaseDetection(ctx, "ocean", 40_000_000, phase.DefaultInterval, opt))
	},
	"fig7": func(ctx context.Context, opt Options) (*Report, error) {
		return report(MCTComparison(ctx, []string{ml.NameGBoost, ml.NameQuadraticLasso}, opt))
	},
	"fig8": func(ctx context.Context, opt Options) (*Report, error) {
		benches := []string{"lbm", "leslie3d", "GemsFDTD", "stream"}
		return report(LifetimeSensitivity(ctx, benches, []float64{4, 6, 8, 10}, opt))
	},
	"fig9": func(ctx context.Context, opt Options) (*Report, error) {
		return report(SamplingOverhead(ctx, []float64{1, 2, 5, 10, 20}, opt))
	},
	"fig10": func(ctx context.Context, opt Options) (*Report, error) {
		return report(MultiProgram(ctx, trace.MixNames(), opt))
	},
	"wq-learning": func(ctx context.Context, opt Options) (*Report, error) {
		return report(WearQuotaLearning(ctx, []string{"lbm", "leslie3d"}, opt))
	},
	"ablation-norm": func(ctx context.Context, opt Options) (*Report, error) {
		return report(NormalizationAblation(ctx, 77, opt))
	},
	"ablation-settle": func(ctx context.Context, opt Options) (*Report, error) {
		return report(SettleAblation(ctx, []string{"lbm", "stream", "gups"}, opt))
	},
	"extension-retention": func(ctx context.Context, opt Options) (*Report, error) {
		return report(RetentionExtension(ctx, []string{"lbm", "stream", "zeusmp"}, opt.LifetimeTarget, opt))
	},
	"validate-wearlevel": func(ctx context.Context, opt Options) (*Report, error) {
		// The region is downscaled so the run completes several gap
		// rotations — the steady-state regime the paper's 95% figure
		// describes (a real bank reaches it over months; one rotation is
		// (N+1)·ψ writes).
		return report(WearLevelValidation(ctx, 8, 1<<10, opt))
	},
	"ablation-power": func(ctx context.Context, opt Options) (*Report, error) {
		return report(PowerBudgetAblation(ctx, []string{"lbm", "stream", "zeusmp"}, []int{2, 4, 8, 16}, opt))
	},
	"hybrid-tier": func(ctx context.Context, opt Options) (*Report, error) {
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
// A nil opt.Sweeps gets one in-memory SweepCache for this call. Every run
// scale (TotalInsts, Trials, SampleCounts) must be set, whichever of them
// the experiment reads.
func Run(ctx context.Context, id string, opt Options) (*Report, error) {
	if to, ok := aliases[id]; ok {
		id = to
	}
	run, ok := experimentsByID[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	if opt.TotalInsts == 0 || opt.Trials < 1 || len(opt.SampleCounts) == 0 {
		return nil, opt.errScale()
	}
	if opt.Sweeps == nil {
		opt.Sweeps = NewSweepCache("")
	}
	return run(ctx, opt)
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
