package experiments

import (
	"context"
	"errors"
	"fmt"

	"mct/internal/config"
	"mct/internal/core"
	"mct/internal/ml"
	"mct/internal/sim"
	"mct/internal/stats"
	"mct/internal/trace"
)

// MCTRunOutcome is one MCT execution on one workload.
type MCTRunOutcome struct {
	Sampling sim.Metrics
	Testing  sim.Metrics
	Chosen   config.Config
}

// MCTComparisonResult holds the Figure 7 / Table 10 data for one benchmark.
type MCTComparisonResult struct {
	Benchmark   string
	Default     sim.Metrics
	Static      sim.Metrics
	Ideal       sim.Metrics
	IdealConfig config.Config
	// MCT outcomes keyed by model name.
	MCT map[string]MCTRunOutcome
}

// EnergyPerInst returns energy normalized per instruction — the
// duration-independent energy measure used to compare runs of different
// lengths.
func EnergyPerInst(m sim.Metrics) float64 {
	if m.Instructions == 0 {
		return 0
	}
	return m.EnergyJ / float64(m.Instructions)
}

// runMCT executes MCT with the given model under the default objective at
// opt.LifetimeTarget for opt.TotalInsts instructions on a fresh machine and
// returns the outcome. workload names a benchmark,
// run on the single-core system, or a Table 11 mix, run on the multi-core
// system with the warmup that fills its shared LLC. The runtime budgets are
// scaled to the run; a non-nil override adjusts the runtime options (an
// ablation's one changed field) before the runtime is built. The run itself
// is one indivisible simulation; ctx is checked before it starts.
func runMCT(ctx context.Context, workload, model string, opt Options, override func(*core.Options)) (MCTRunOutcome, error) {
	if err := ctx.Err(); err != nil {
		return MCTRunOutcome{}, err
	}
	ro := core.DefaultOptions().ScaledTo(opt.TotalInsts)
	ro.Model = model
	ro.Seed = opt.Seed
	var sys core.System
	if specs, err := trace.MixByName(workload); err == nil {
		mm, err := sim.NewMultiMachine(specs, config.StaticBaseline(), opt.seededMulti())
		if err != nil {
			return MCTRunOutcome{}, err
		}
		sys = core.MultiSystem{MM: mm}
		ro.WarmupAccesses = sim.MultiWarmupAccesses
	} else {
		spec, err := trace.ByName(workload)
		if err != nil {
			return MCTRunOutcome{}, err
		}
		if sys, err = sim.NewMachine(spec, config.StaticBaseline(), opt.seededSim()); err != nil {
			return MCTRunOutcome{}, err
		}
	}
	if override != nil {
		override(&ro)
	}
	rt, err := core.New(sys, core.Default(opt.LifetimeTarget), ro)
	if err != nil {
		return MCTRunOutcome{}, err
	}
	res, err := rt.Run(opt.TotalInsts)
	if err != nil {
		return MCTRunOutcome{}, err
	}
	out := MCTRunOutcome{Sampling: res.Sampling, Testing: res.Testing}
	if n := len(res.Phases); n > 0 {
		out.Chosen = res.Phases[n-1].Decision.Chosen
	}
	return out, nil
}

// MCTComparison reproduces Figure 7 and Table 10: MCT (gradient boosting
// and quadratic-lasso) against the default system, the best static policy,
// and the brute-force ideal policy, under the default objective.
func MCTComparison(ctx context.Context, models []string, opt Options) ([]MCTComparisonResult, *Report, error) {
	if opt.TotalInsts == 0 {
		return nil, nil, opt.errScale()
	}
	if len(models) == 0 {
		return nil, nil, errors.New("experiments: MCTComparison: no models to compare")
	}
	obj := core.Default(opt.LifetimeTarget)

	var results []MCTComparisonResult
	fig7 := Table{
		Title:  "Figure 7: MCT vs baselines (IPC and energy/inst normalized to static; lifetime in years)",
		Header: []string{"benchmark", "ipc_def", "ipc_ideal", "life_def", "life_static", "en_def", "en_ideal"},
	}
	for _, mn := range models {
		fig7.Header = append(fig7.Header, "ipc_"+mn, "life_"+mn, "en_"+mn)
	}
	t10 := Table{Title: "Table 10: optimal configurations selected by MCT (" + models[0] + ")", Header: configHeader}
	t10.AddRow(configRow("static", obj.Baseline())...)

	gains := map[string][]float64{}    // model -> per-bench IPC ratio vs static
	energies := map[string][]float64{} // model -> per-bench energy ratio vs static
	var idealIPCRatio, idealEnergyRatio []float64
	ofIdealIPC := map[string][]float64{}
	ofIdealEnergy := map[string][]float64{}

	for _, bench := range opt.Benchmarks {
		emitf(opt, "fig7", bench, "fig7: %s", bench)
		sw, err := RunSweep(ctx, bench, true, opt)
		if err != nil {
			return nil, nil, err
		}
		pos, _ := sw.Ideal(obj)
		r := MCTComparisonResult{
			Benchmark:   bench,
			Default:     sw.Default,
			Static:      sw.Baseline,
			Ideal:       sw.Metrics[pos],
			IdealConfig: sw.Space.At(sw.Indices[pos]),
			MCT:         map[string]MCTRunOutcome{},
		}
		for _, mn := range models {
			out, err := runMCT(ctx, bench, mn, opt, nil)
			if err != nil {
				return nil, nil, err
			}
			r.MCT[mn] = out
		}
		results = append(results, r)

		stIPC, stEn := r.Static.IPC, EnergyPerInst(r.Static)
		row := []string{
			bench,
			f3(r.Default.IPC / stIPC), f3(r.Ideal.IPC / stIPC),
			f2(r.Default.LifetimeYears), f2(r.Static.LifetimeYears),
			f3(EnergyPerInst(r.Default) / stEn), f3(EnergyPerInst(r.Ideal) / stEn),
		}
		idealIPCRatio = append(idealIPCRatio, r.Ideal.IPC/stIPC)
		idealEnergyRatio = append(idealEnergyRatio, EnergyPerInst(r.Ideal)/stEn)
		for _, mn := range models {
			out := r.MCT[mn]
			row = append(row, f3(out.Testing.IPC/stIPC), f2(out.Testing.LifetimeYears), f3(EnergyPerInst(out.Testing)/stEn))
			gains[mn] = append(gains[mn], out.Testing.IPC/stIPC)
			energies[mn] = append(energies[mn], EnergyPerInst(out.Testing)/stEn)
			ofIdealIPC[mn] = append(ofIdealIPC[mn], out.Testing.IPC/r.Ideal.IPC)
			ofIdealEnergy[mn] = append(ofIdealEnergy[mn], EnergyPerInst(out.Testing)/EnergyPerInst(r.Ideal))
		}
		fig7.Rows = append(fig7.Rows, row)
		t10.AddRow(configRow(bench, r.MCT[models[0]].Chosen)...)
	}

	// Geomean summary row.
	sumRow := []string{"GEOMEAN", "", f3(stats.GeoMean(idealIPCRatio)), "", "", "", f3(stats.GeoMean(idealEnergyRatio))}
	for _, mn := range models {
		sumRow = append(sumRow, f3(stats.GeoMean(gains[mn])), "", f3(stats.GeoMean(energies[mn])))
	}
	fig7.Rows = append(fig7.Rows, sumRow)

	rep := &Report{ID: "fig7", Tables: []Table{fig7, t10}}
	for _, mn := range models {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"MCT(%s): %+.2f%% IPC, %+.2f%% energy vs static; %.2f%% of ideal IPC, %+.2f%% energy vs ideal",
			mn,
			100*(stats.GeoMean(gains[mn])-1), 100*(stats.GeoMean(energies[mn])-1),
			100*stats.GeoMean(ofIdealIPC[mn]), 100*(stats.GeoMean(ofIdealEnergy[mn])-1)))
	}
	return results, rep, nil
}

// LifetimeSensitivityResult holds Figure 8 data for one (benchmark, target)
// pair.
type LifetimeSensitivityResult struct {
	Benchmark string
	Target    float64
	Ideal     sim.Metrics
	Static    sim.Metrics
	MCT       MCTRunOutcome
}

// LifetimeSensitivity reproduces Figure 8: MCT (gradient boosting) versus
// the static policy and the ideal policy as the lifetime target sweeps 4–10
// years. As in the paper's Table 4 protocol, the brute-force ideal search
// uses the space without wear quota (sweeping every target's wear-quota
// space is computationally prohibitive even here).
func LifetimeSensitivity(ctx context.Context, benchmarks []string, targets []float64, opt Options) ([]LifetimeSensitivityResult, *Report, error) {
	if opt.TotalInsts == 0 {
		return nil, nil, opt.errScale()
	}
	if len(targets) == 0 {
		return nil, nil, errors.New("experiments: LifetimeSensitivity: no lifetime targets")
	}
	var results []LifetimeSensitivityResult
	tbl := Table{
		Title:  "Figure 8: sensitivity to lifetime targets (IPC and energy/inst normalized to the 8y static policy)",
		Header: []string{"benchmark", "target(y)", "ipc_static", "ipc_mct", "ipc_ideal", "life_mct", "en_static", "en_mct", "en_ideal"},
	}
	for _, bench := range benchmarks {
		sw, err := RunSweep(ctx, bench, false, opt)
		if err != nil {
			return nil, nil, err
		}
		for _, t := range targets {
			emitf(opt, "fig8", bench, "fig8: %s @ %gy", bench, t)
			pos, _ := sw.Ideal(core.Default(t))
			tOpt := opt
			tOpt.LifetimeTarget = t
			out, err := runMCT(ctx, bench, ml.NameGBoost, tOpt, nil)
			if err != nil {
				return nil, nil, err
			}
			r := LifetimeSensitivityResult{
				Benchmark: bench,
				Target:    t,
				Ideal:     sw.Metrics[pos],
				Static:    sw.Baseline,
				MCT:       out,
			}
			results = append(results, r)
			stIPC, stEn := sw.Baseline.IPC, EnergyPerInst(sw.Baseline)
			tbl.AddRow(bench, f2(t),
				"1.000", f3(out.Testing.IPC/stIPC), f3(r.Ideal.IPC/stIPC),
				f2(out.Testing.LifetimeYears),
				"1.000", f3(EnergyPerInst(out.Testing)/stEn), f3(EnergyPerInst(r.Ideal)/stEn))
		}
	}
	rep := &Report{ID: "fig8", Tables: []Table{tbl}}
	rep.Notes = append(rep.Notes, "higher targets force lower-IPC, higher-energy configurations; wear-quota fixup guarantees the floor when predictions overestimate lifetime")
	return results, rep, nil
}

// SamplingOverheadResult holds Figure 9 data for one benchmark.
type SamplingOverheadResult struct {
	Benchmark string
	// Normalized to the static policy over the same workload.
	SamplingIPCRatio    float64
	TestingIPCRatio     float64
	SamplingEnergyRatio float64
	TestingEnergyRatio  float64
}

// ExtrapolateIPC applies Equation 4: the total value when the testing
// period is alpha times the sampling period.
func ExtrapolateIPC(sampling, testing, alpha float64) float64 {
	return (sampling + alpha*testing) / (1 + alpha)
}

// SamplingOverhead reproduces Figure 9: the cost of running suboptimal
// sample configurations during the sampling period, the gains during the
// testing period, and the extrapolated net gain for testing:sampling
// ratios α.
func SamplingOverhead(ctx context.Context, alphas []float64, opt Options) ([]SamplingOverheadResult, *Report, error) {
	if opt.TotalInsts == 0 {
		return nil, nil, opt.errScale()
	}
	if len(alphas) == 0 {
		return nil, nil, errors.New("experiments: SamplingOverhead: no testing:sampling ratios")
	}
	obj := core.Default(opt.LifetimeTarget)
	var results []SamplingOverheadResult

	tblA := Table{
		Title:  "Figure 9a: sampling-period overhead vs testing-period gains (normalized to static)",
		Header: []string{"benchmark", "ipc_sampling", "ipc_testing", "energy_sampling", "energy_testing"},
	}
	for _, bench := range opt.Benchmarks {
		emitf(opt, "fig9", bench, "fig9: %s", bench)
		// The static policy alone, on the window RunSweep would prepare: a
		// configuration's Metrics do not depend on its batch, so this
		// equals that sweep's Baseline.
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		prep, err := sim.Prepare(bench, 0, opt.Accesses, opt.seededSim())
		if err != nil {
			return nil, nil, err
		}
		base, err := prep.Evaluate(obj.Baseline())
		if err != nil {
			return nil, nil, err
		}
		out, err := runMCT(ctx, bench, ml.NameGBoost, opt, nil)
		if err != nil {
			return nil, nil, err
		}
		stIPC, stEn := base.IPC, EnergyPerInst(base)
		r := SamplingOverheadResult{
			Benchmark:           bench,
			SamplingIPCRatio:    out.Sampling.IPC / stIPC,
			TestingIPCRatio:     out.Testing.IPC / stIPC,
			SamplingEnergyRatio: EnergyPerInst(out.Sampling) / stEn,
			TestingEnergyRatio:  EnergyPerInst(out.Testing) / stEn,
		}
		results = append(results, r)
		tblA.AddRow(bench, f3(r.SamplingIPCRatio), f3(r.TestingIPCRatio), f3(r.SamplingEnergyRatio), f3(r.TestingEnergyRatio))
	}
	var sIPC, tIPC, sEn, tEn []float64
	for _, r := range results {
		sIPC = append(sIPC, r.SamplingIPCRatio)
		tIPC = append(tIPC, r.TestingIPCRatio)
		sEn = append(sEn, r.SamplingEnergyRatio)
		tEn = append(tEn, r.TestingEnergyRatio)
	}
	tblA.AddRow("GEOMEAN", f3(stats.GeoMean(sIPC)), f3(stats.GeoMean(tIPC)), f3(stats.GeoMean(sEn)), f3(stats.GeoMean(tEn)))

	tblB := Table{Title: "Figure 9b: extrapolated totals vs testing:sampling ratio α (Equation 4)", Header: []string{"alpha", "ipc_total", "energy_total"}}
	for _, a := range alphas {
		tblB.AddRow(fmt.Sprintf("%g", a),
			f3(ExtrapolateIPC(stats.GeoMean(sIPC), stats.GeoMean(tIPC), a)),
			f3(ExtrapolateIPC(stats.GeoMean(sEn), stats.GeoMean(tEn), a)))
	}
	rep := &Report{ID: "fig9", Tables: []Table{tblA, tblB}}
	return results, rep, nil
}
