package experiments

import (
	"context"
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

// multiWarmupAccesses fills the 8 MB shared LLC (4× the single-core cache).
const multiWarmupAccesses = 4 * sim.DefaultWarmupAccesses

// MultiProgram reproduces Table 11 and Figure 10: MCT on a 4-core system
// running the multi-program mixes, compared to the default system and the
// static policy. As in the paper, no brute-force ideal is computed for the
// multi-core space ("computationally intractable"). Mixes run concurrently
// (opt.Workers); rows render in mix order, so the report is identical at
// any worker count.
func MultiProgram(ctx context.Context, mixes []string, totalInsts uint64, opt Options) ([]MultiProgramResult, *Report, error) {
	if len(mixes) == 0 {
		mixes = trace.MixNames()
	}
	obj := core.Default(opt.LifetimeTarget)
	t11 := Table{Title: "Table 11: multi-program workloads", Header: []string{"mix", "members"}}
	fig10 := Table{
		Title:  "Figure 10: multi-core MCT (geomean IPC normalized to static; lifetime in years)",
		Header: []string{"mix", "ipc_def", "ipc_mct", "life_def", "life_static", "life_mct"},
	}

	mo := sim.DefaultMultiOptions()
	mo.Seed = opt.Seed

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
				mm, err := sim.NewMultiMachine(specs, cfg, mo)
				if err != nil {
					return sim.Metrics{}, err
				}
				mm.Warmup(multiWarmupAccesses)
				return mm.RunInstructions(totalInsts), nil
			}
			def, err := runStatic(config.Default())
			if err != nil {
				return MultiProgramResult{}, err
			}
			st, err := runStatic(baselineAt(opt.LifetimeTarget))
			if err != nil {
				return MultiProgramResult{}, err
			}

			if err := ctx.Err(); err != nil {
				return MultiProgramResult{}, err
			}
			mm, err := sim.NewMultiMachine(specs, config.StaticBaseline(), mo)
			if err != nil {
				return MultiProgramResult{}, err
			}
			ro := runtimeOptionsFor(ml.NameGBoost, totalInsts, opt.Seed)
			ro.WarmupAccesses = multiWarmupAccesses
			rt, err := core.New(core.MultiSystem{MM: mm}, obj, ro)
			if err != nil {
				return MultiProgramResult{}, err
			}
			res, err := rt.Run(totalInsts)
			if err != nil {
				return MultiProgramResult{}, err
			}

			r := MultiProgramResult{
				Mix:     mix,
				Members: names,
				Default: def,
				Static:  st,
				MCT:     res.Testing,
			}
			if n := len(res.Phases); n > 0 {
				r.Chosen = res.Phases[n-1].Decision.Chosen
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
