package experiments

import (
	"context"
	"fmt"
	"strings"

	"mct/internal/config"
	"mct/internal/core"
	"mct/internal/ml"
	"mct/internal/sim"
)

// HybridTierVariant is one hierarchy scenario's ideal-policy measurement
// on one benchmark: the stock NVM-only machine (PromoteThreshold 0) or a
// hybrid DRAM–NVM machine at one hot-page promotion threshold.
type HybridTierVariant struct {
	// PromoteThreshold is the DRAM tier's hot-page promotion threshold;
	// 0 marks the NVM-only scenario.
	PromoteThreshold int
	// IdealConfig and Ideal are the sweep's objective winner and its
	// measurement; ok is false when no configuration satisfied the
	// objective under this hierarchy.
	IdealConfig config.Config
	Ideal       sim.Metrics
	OK          bool
	// Default is the default-system measurement under this hierarchy.
	Default sim.Metrics
}

// HybridTierResult collects one benchmark's frontier across hierarchy
// variants.
type HybridTierResult struct {
	Benchmark string
	Variants  []HybridTierVariant
}

// variantLabel names a scenario row.
func variantLabel(threshold int) string {
	if threshold == 0 {
		return "nvm-only"
	}
	return fmt.Sprintf("dram t=%d", threshold)
}

// tierRows returns the extended (10+2)-dim hierarchy-aware encodings of a
// sweep: the configuration vector with the tier features appended.
func tierRows(sw *Sweep, tc config.TierConfig) [][]float64 {
	tv := tc.Vector()
	X := make([][]float64, len(sw.Indices))
	for i, idx := range sw.Indices {
		X[i] = append(sw.Space.At(idx).Vector(), tv...)
	}
	return X
}

// HybridTier runs the hybrid-tier frontier experiment: for every
// benchmark, the full configuration space is swept under the stock
// NVM-only hierarchy and under the hybrid DRAM–NVM hierarchy at each
// promotion threshold of config.PromoteThresholdGrid, and the paper's
// objective (min energy s.t. lifetime ≥ target, IPC ≥ 0.95·best) is
// applied per variant — an NVM-only-vs-hybrid frontier in which the DRAM
// hit ratio appears as a new tradeoff dimension. A quadratic lasso is
// then fitted on the pooled, hierarchy-extended feature vectors to show
// the tier knobs joining the learned model. Every sweep reuses the
// standard sweep/engine/obs/disk-cache machinery unchanged: the tier
// composition rides in sim.Options, so each variant lands in its own
// cache slot via the options digest.
func HybridTier(ctx context.Context, opt Options) ([]HybridTierResult, *Report, error) {
	obj := core.Default(opt.LifetimeTarget)
	thresholds := append([]int{0}, config.PromoteThresholdGrid...)

	frontier := Table{
		Title: fmt.Sprintf("Hybrid DRAM-NVM frontier: ideal per hierarchy variant (objective: min energy, lifetime >= %gy, IPC >= 0.95 best)",
			opt.LifetimeTarget),
		Header: []string{"benchmark", "hierarchy", "ideal IPC", "lifetime (y)", "energy (J)", "dram hit", "nvm writes", "dram wbs"},
	}

	var results []HybridTierResult
	type pooled struct {
		X [][]float64
		y []float64
	}
	pool := pooled{}

	for _, bench := range opt.Benchmarks {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		res := HybridTierResult{Benchmark: bench}
		for _, th := range thresholds {
			vopt := opt
			if th > 0 {
				vopt.Sim.Tiers = config.TierConfig{DRAMCache: true, DRAMPromoteThreshold: th}
			}
			sw, err := RunSweep(ctx, bench, false, vopt)
			if err != nil {
				return nil, nil, err
			}
			v := HybridTierVariant{PromoteThreshold: th, Default: sw.Default}
			if pos, ok := sw.Ideal(obj); ok {
				v.OK = true
				v.IdealConfig = sw.Space.At(sw.Indices[pos])
				v.Ideal = sw.Metrics[pos]
			}
			res.Variants = append(res.Variants, v)

			if v.OK {
				frontier.AddRow(bench, variantLabel(th),
					f3(v.Ideal.IPC), f2(v.Ideal.LifetimeYears), fmt.Sprintf("%.4g", v.Ideal.EnergyJ),
					f3(v.Ideal.DRAMHitRate), fmt.Sprintf("%d", v.Ideal.MemWrites),
					fmt.Sprintf("%d", v.Ideal.DRAMWritebacks))
			} else {
				frontier.AddRow(bench, variantLabel(th), "-", "-", "-", "-", "-", "-")
			}

			pool.X = append(pool.X, tierRows(sw, vopt.Sim.Tiers)...)
			pool.y = append(pool.y, sw.Targets(core.MetricEnergy, false)...)
			emitf(opt, "hybrid-tier", bench, "hybrid-tier: %s %s done", bench, variantLabel(th))
		}
		results = append(results, res)
	}

	// Learned tier dimension: fit the quadratic lasso over the pooled
	// hierarchy-extended vectors and rank the features touching a tier
	// knob. Raw (unnormalized) energy targets — normalizing per variant
	// would cancel exactly the cross-hierarchy effect being learned.
	learned := Table{
		Title:  "Learned hierarchy dimension: top quadratic-lasso features involving a tier knob (target: energy, pooled across variants)",
		Header: []string{"rank", "feature", "weight"},
	}
	names := ml.QuadraticNames(append(config.VectorNames(), config.TierVectorNames()...))
	lasso := ml.NewQuadraticLasso(ml.DefaultLassoLambda)
	if err := lasso.Fit(pool.X, pool.y); err != nil {
		return nil, nil, err
	}
	w, _ := lasso.Coefficients()
	tierFeats := rankCoefficients(w, func(j int) bool { return isTierFeature(names[j]) })
	for k, j := range tierFeats[:min(5, len(tierFeats))] {
		learned.AddRow(fmt.Sprintf("%d", k+1), names[j], f4(w[j]))
	}
	if len(tierFeats) == 0 {
		learned.AddRow("-", "(no tier feature selected at this lambda)", "-")
	}

	rep := &Report{ID: "hybrid-tier", Tables: []Table{frontier, learned}}
	rep.Notes = append(rep.Notes,
		"each hierarchy variant is a full sweep through the standard machinery; the tier composition rides in sim.Options, so variants occupy distinct sweep-cache slots",
		"the DRAM tier absorbs hot-page writes (fewer NVM writes, longer lifetime) at the cost of DRAM access and refresh energy — the hit ratio is the new learned tradeoff dimension")
	return results, rep, nil
}

// isTierFeature reports whether a quadratic feature name involves one of
// the hierarchy knobs.
func isTierFeature(name string) bool {
	for _, tn := range config.TierVectorNames() {
		if strings.Contains(name, tn) {
			return true
		}
	}
	return false
}
