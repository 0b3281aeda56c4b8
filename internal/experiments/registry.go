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

// Run executes one experiment by ID and returns its report. Valid IDs are
// listed by IDs(). Cancelling ctx aborts the experiment with ctx.Err();
// opt.Workers bounds the parallelism of its sweeps and driver fan-out.
func Run(ctx context.Context, id string, opt Options, rp RunParams) (*Report, error) {
	switch id {
	case "space":
		return SpaceSummary(opt), nil
	case "table4":
		bench := "leslie3d"
		_, rep, err := IdealByLifetime(ctx, bench, []float64{4, 6, 8, 10}, opt)
		return rep, err
	case "fig1", "table5":
		_, rep, err := IdealByApp(ctx, opt)
		return rep, err
	case "table6":
		_, rep, err := TopQuadraticFeatures(ctx, 0 /* IPC */, 3, opt)
		return rep, err
	case "fig2", "table7":
		_, rep, err := ModelComparison(ctx, rp.SampleCounts, rp.Trials, opt)
		return rep, err
	case "fig3":
		_, rep, err := WearQuotaAblation(ctx, 77, rp.Trials, opt)
		return rep, err
	case "fig4a":
		_, rep, err := LassoCoefficients(ctx, opt)
		return rep, err
	case "fig4", "fig4b":
		_, rep, err := FeatureVsRandomSampling(ctx, opt)
		return rep, err
	case "fig6":
		_, rep, err := PhaseDetection(ctx, "ocean", 40_000_000, fig6PhaseOptions(), opt)
		return rep, err
	case "fig7", "table10":
		_, rep, err := MCTComparison(ctx, []string{ml.NameGBoost, ml.NameQuadraticLasso}, rp.TotalInsts, opt)
		return rep, err
	case "fig8":
		benches := []string{"lbm", "leslie3d", "GemsFDTD", "stream"}
		_, rep, err := LifetimeSensitivity(ctx, benches, []float64{4, 6, 8, 10}, rp.TotalInsts, opt)
		return rep, err
	case "fig9":
		_, rep, err := SamplingOverhead(ctx, nil, rp.TotalInsts, opt)
		return rep, err
	case "fig10", "table11":
		_, rep, err := MultiProgram(ctx, nil, rp.TotalInsts, opt)
		return rep, err
	case "wq-learning":
		_, rep, err := WearQuotaLearning(ctx, []string{"lbm", "leslie3d"}, rp.TotalInsts, opt)
		return rep, err
	case "ablation-norm":
		_, rep, err := NormalizationAblation(ctx, 77, rp.Trials, opt)
		return rep, err
	case "ablation-settle":
		_, rep, err := SettleAblation(ctx, []string{"lbm", "stream", "gups"}, rp.TotalInsts, opt)
		return rep, err
	case "extension-retention":
		_, rep, err := RetentionExtension(ctx, []string{"lbm", "stream", "zeusmp"}, opt.LifetimeTarget, opt)
		return rep, err
	case "validate-wearlevel":
		_, rep, err := WearLevelValidation(ctx, 0, 0, opt)
		return rep, err
	case "ablation-power":
		_, rep, err := PowerBudgetAblation(ctx, []string{"lbm", "stream", "zeusmp"}, nil, opt)
		return rep, err
	case "hybrid-tier":
		_, rep, err := HybridTier(ctx, opt)
		return rep, err
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
}

// IDs lists the runnable experiment identifiers.
func IDs() []string {
	ids := []string{
		"space", "table4", "fig1", "table6", "fig2", "fig3",
		"fig4a", "fig4b", "fig6", "fig7", "fig8", "fig9", "fig10",
		"wq-learning",
		"ablation-norm", "ablation-settle", "ablation-power",
		"validate-wearlevel", "extension-retention",
		"hybrid-tier",
	}
	sort.Strings(ids)
	return ids
}
