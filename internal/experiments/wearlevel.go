package experiments

import (
	"context"
	"fmt"

	"mct/internal/cache"
	"mct/internal/rng"
	"mct/internal/trace"
	"mct/internal/wearlevel"
)

// WearLevelResult validates the Table 9 wear-leveling assumption for one
// benchmark.
type WearLevelResult struct {
	Benchmark string
	// Leveled is the avg/max wear ratio achieved by Start-Gap; the NVM
	// model assumes 0.95.
	Leveled float64
	// Unleveled is the ratio with no leveling (raw write histogram).
	Unleveled float64
	// OverheadFrac is the fraction of extra writes spent on gap movements.
	OverheadFrac float64
	Writes       uint64
}

// WearLevelValidation reproduces the assumption behind the lifetime model:
// it replays each benchmark's memory-write stream (LLC writebacks, folded
// onto one bank-sized region) through an actual Start-Gap leveler and
// reports the achieved avg/max wear ratio against the paper's assumed 95%,
// alongside the unleveled ratio and the gap-movement write overhead.
func WearLevelValidation(ctx context.Context, psi, regionLines int, opt Options) ([]WearLevelResult, *Report, error) {
	var results []WearLevelResult
	tbl := Table{
		Title:  fmt.Sprintf("Wear-leveling validation: Start-Gap (ψ=%d, %d-line region) vs the assumed 0.95", psi, regionLines),
		Header: []string{"benchmark", "writes", "rotations", "leveled avg/max", "unleveled avg/max", "gap overhead"},
	}
	for _, bench := range opt.Benchmarks {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		spec, err := trace.ByName(bench)
		if err != nil {
			return nil, nil, err
		}
		llc, err := cache.New(opt.Sim.CacheBytes, opt.Sim.CacheWays)
		if err != nil {
			return nil, nil, err
		}
		gen := trace.NewGenerator(spec, rng.NewRand(opt.Seed))
		sg := wearlevel.New(regionLines, psi)
		raw := make([]uint64, regionLines+1)
		var writes uint64
		// Enough accesses to wear the folded region meaningfully; the
		// cache warms within the first region's worth of traffic.
		n := opt.Accesses * 10
		if n < 500_000 {
			n = 500_000
		}
		for i := 0; i < n; i++ {
			a := gen.Next()
			res := llc.Access(a.Addr, a.Write)
			if !res.Hit && res.Writeback {
				line := int((res.WritebackAddr / cache.LineBytes) % uint64(regionLines)) //mctlint:ignore cyclecast remainder is bounded by regionLines
				sg.OnWrite(line)
				raw[line]++
				writes++
			}
		}
		r := WearLevelResult{
			Benchmark: bench,
			Leveled:   sg.Efficiency(),
			Unleveled: wearlevel.UnleveledEfficiency(raw),
			Writes:    writes,
		}
		if writes > 0 {
			r.OverheadFrac = float64(sg.GapMoves()) / float64(writes)
		}
		results = append(results, r)
		rotations := float64(sg.GapMoves()) / float64(regionLines+1)
		tbl.AddRow(bench, fmt.Sprintf("%d", writes), f2(rotations), f3(r.Leveled), f3(r.Unleveled), f3(r.OverheadFrac))
		emitf(opt, "validate-wearlevel", bench, "wearlevel: %s done", bench)
	}
	rep := &Report{ID: "validate-wearlevel", Tables: []Table{tbl}}
	rep.Notes = append(rep.Notes,
		"the NVM lifetime model assumes 95% leveling efficiency (Table 9); Start-Gap approaches it given enough rotations, while unleveled efficiency collapses for workloads with hot lines")
	return results, rep, nil
}
