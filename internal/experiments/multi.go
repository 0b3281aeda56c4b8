package experiments

import (
	"context"
	"errors"
	"fmt"

	"mct/internal/config"
	"mct/internal/core"
	"mct/internal/engine"
	"mct/internal/ml"
	"mct/internal/sim"
	"mct/internal/stats"
	"mct/internal/trace"
)

// MultiProgramResult holds the Figure 10 data for one mix.
type MultiProgramResult struct {
	Mix     string
	Members []string
	Default sim.Metrics
	Static  sim.Metrics
	MCT     sim.Metrics
	Chosen  config.Config
}

// MultiProgram reproduces Table 11 and Figure 10: MCT on a 4-core system
// running the multi-program mixes, compared to the default system and the
// static policy. As in the paper, no brute-force ideal is computed for the
// multi-core space ("computationally intractable"). Mixes run concurrently
// (opt.Workers); rows render in mix order, so the report is identical at
// any worker count.
func MultiProgram(ctx context.Context, mixes []string, opt Options) ([]MultiProgramResult, *Report, error) {
	if opt.TotalInsts == 0 {
		return nil, nil, opt.errScale()
	}
	if len(mixes) == 0 {
		return nil, nil, errors.New("experiments: MultiProgram: no mixes")
	}
	obj := core.Default(opt.LifetimeTarget)
	t11 := Table{Title: "Table 11: multi-program workloads", Header: []string{"mix", "members"}}
	fig10 := Table{
		Title:  "Figure 10: multi-core MCT (geomean IPC normalized to static; lifetime in years)",
		Header: []string{"mix", "ipc_def", "ipc_mct", "life_def", "life_static", "life_mct"},
	}

	results, err := engine.Map(ctx, len(mixes), engine.Options{Workers: opt.Workers, Obs: opt.Obs},
		func(ctx context.Context, i int) (MultiProgramResult, error) {
			mix := mixes[i]
			emitf(opt, "fig10", mix, "fig10: %s", mix)
			specs, err := trace.MixByName(mix)
			if err != nil {
				return MultiProgramResult{}, err
			}
			var names []string
			for _, s := range specs {
				names = append(names, s.Name)
			}

			// Each run is one indivisible simulation; ctx is checked
			// before each starts.
			runStatic := func(cfg config.Config) (sim.Metrics, error) {
				if err := ctx.Err(); err != nil {
					return sim.Metrics{}, err
				}
				mm, err := sim.NewMultiMachine(specs, cfg, opt.seededMulti())
				if err != nil {
					return sim.Metrics{}, err
				}
				mm.Warmup(sim.MultiWarmupAccesses)
				return mm.RunInstructions(opt.TotalInsts), nil
			}
			def, err := runStatic(config.Default())
			if err != nil {
				return MultiProgramResult{}, err
			}
			st, err := runStatic(obj.Baseline())
			if err != nil {
				return MultiProgramResult{}, err
			}
			out, err := runMCT(ctx, mix, ml.NameGBoost, opt, nil)
			if err != nil {
				return MultiProgramResult{}, err
			}
			r := MultiProgramResult{
				Mix:     mix,
				Members: names,
				Default: def,
				Static:  st,
				MCT:     out.Testing,
				Chosen:  out.Chosen,
			}
			return r, nil
		})
	if err != nil {
		return nil, nil, err
	}

	var ipcRatios []float64
	for _, r := range results {
		t11.AddRow(r.Mix, fmt.Sprintf("%v", r.Members))
		ipcRatios = append(ipcRatios, r.MCT.IPC/r.Static.IPC)
		fig10.AddRow(r.Mix,
			f3(r.Default.IPC/r.Static.IPC), f3(r.MCT.IPC/r.Static.IPC),
			f2(r.Default.LifetimeYears), f2(r.Static.LifetimeYears), f2(r.MCT.LifetimeYears))
	}
	fig10.AddRow("GEOMEAN", "", f3(stats.GeoMean(ipcRatios)), "", "", "")

	rep := &Report{ID: "fig10", Tables: []Table{t11, fig10}}
	return results, rep, nil
}
