package experiments

import (
	"context"

	"mct/internal/config"
	"mct/internal/core"
	"mct/internal/engine"
	"mct/internal/sim"
)

// configRow renders a configuration in the column layout of Tables 4/5/10.
func configRow(label string, c config.Config) []string {
	na := func(on bool, v string) string {
		if !on {
			return "N/A"
		}
		return v
	}
	b := func(v bool) string {
		if v {
			return "True"
		}
		return "False"
	}
	return []string{
		label,
		b(c.BankAware), na(c.BankAware, f2(float64(c.BankAwareThreshold))),
		b(c.EagerWritebacks), na(c.EagerWritebacks, f2(float64(c.EagerThreshold))),
		b(c.WearQuota), na(c.WearQuota, f2(c.WearQuotaTarget)),
		f2(c.FastLatency), f2(c.SlowLatency),
		b(c.FastCancellation), b(c.SlowCancellation),
	}
}

var configHeader = []string{
	"", "bank_aware", "ba_thresh", "eager_wb", "eager_thresh",
	"wear_quota", "wq_target", "fast_lat", "slow_lat", "fast_canc", "slow_canc",
}

// IdealByAppResult holds the Figure 1 / Table 5 data for one benchmark.
type IdealByAppResult struct {
	Benchmark string
	Ideal     config.Config
	// Measurements on the identical trace.
	Default  sim.Metrics
	Baseline sim.Metrics
	IdealM   sim.Metrics
}

// IdealByApp reproduces Table 5 and Figure 1: the brute-force ideal
// configuration per application under the default objective (lifetime ≥
// target, IPC within 95% of max, minimize energy), compared against the
// default system and the best static policy. Benchmarks are swept
// concurrently (opt.Workers); rows render in benchmark order, so the report
// is identical at any worker count.
func IdealByApp(ctx context.Context, opt Options) ([]IdealByAppResult, *Report, error) {
	obj := core.Default(opt.LifetimeTarget)

	tbl5 := Table{Title: "Table 5: ideal configurations per application", Header: configHeader}
	tbl5.AddRow(configRow("default", config.Default())...)
	tbl5.AddRow(configRow("baseline", obj.Baseline())...)

	fig1 := Table{
		Title:  "Figure 1: IPC, lifetime, energy of default / baseline / ideal (IPC+energy normalized to baseline)",
		Header: []string{"benchmark", "ipc_def", "ipc_base", "ipc_ideal", "life_def(y)", "life_base(y)", "life_ideal(y)", "en_def", "en_base", "en_ideal"},
	}

	results, err := engine.Map(ctx, len(opt.Benchmarks), engine.Options{Workers: opt.Workers, Obs: opt.Obs},
		func(ctx context.Context, i int) (IdealByAppResult, error) {
			bench := opt.Benchmarks[i]
			emitf(opt, "fig1", bench, "fig1: sweeping %s", bench)
			sw, err := RunSweep(ctx, bench, true, opt)
			if err != nil {
				return IdealByAppResult{}, err
			}
			pos, _ := sw.Ideal(obj)
			return IdealByAppResult{
				Benchmark: bench,
				Ideal:     sw.Space.At(sw.Indices[pos]),
				Default:   sw.Default,
				Baseline:  sw.Baseline,
				IdealM:    sw.Metrics[pos],
			}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	for _, r := range results {
		tbl5.AddRow(configRow(r.Benchmark+"_ideal", r.Ideal)...)
		fig1.AddRow(r.Benchmark,
			f3(r.Default.IPC/r.Baseline.IPC), "1.000", f3(r.IdealM.IPC/r.Baseline.IPC),
			f2(r.Default.LifetimeYears), f2(r.Baseline.LifetimeYears), f2(r.IdealM.LifetimeYears),
			f3(r.Default.EnergyJ/r.Baseline.EnergyJ), "1.000", f3(r.IdealM.EnergyJ/r.Baseline.EnergyJ),
		)
	}

	rep := &Report{ID: "fig1", Tables: []Table{fig1, tbl5}}
	rep.Notes = append(rep.Notes,
		"ideal = brute-force search of the configuration space under: lifetime ≥ target, IPC ≥ 0.95·max, min energy")
	return results, rep, nil
}

// IdealByLifetimeResult holds one Table 4 row.
type IdealByLifetimeResult struct {
	TargetYears float64
	Ideal       config.Config
	IdealM      sim.Metrics
}

// IdealByLifetime reproduces Table 4: ideal configurations of one
// application (leslie3d in the paper) as the minimum-lifetime constraint
// sweeps 4→10 years. As in the paper, wear quota is excluded from the
// explored space for this table.
func IdealByLifetime(ctx context.Context, benchmark string, targets []float64, opt Options) ([]IdealByLifetimeResult, *Report, error) {
	var results []IdealByLifetimeResult
	tbl := Table{Title: "Table 4: ideal configurations vs lifetime target (" + benchmark + ", no wear quota)", Header: configHeader}

	sw, err := RunSweep(ctx, benchmark, false, opt)
	if err != nil {
		return nil, nil, err
	}
	for _, t := range targets {
		pos, _ := sw.Ideal(core.Default(t))
		r := IdealByLifetimeResult{
			TargetYears: t,
			Ideal:       sw.Space.At(sw.Indices[pos]),
			IdealM:      sw.Metrics[pos],
		}
		results = append(results, r)
		tbl.AddRow(configRow(f2(t)+" years", r.Ideal)...)
	}
	rep := &Report{ID: "table4", Tables: []Table{tbl}}
	return results, rep, nil
}
