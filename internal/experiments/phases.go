package experiments

import (
	"context"
	"fmt"

	"mct/internal/config"
	"mct/internal/phase"
	"mct/internal/sim"
	"mct/internal/trace"
)

// PhasePoint is one observation interval of the Figure 6 trace.
type PhasePoint struct {
	Insts       uint64
	MemRequests uint64
	Score       float64
	NewPhase    bool
}

// PhaseDetectionResult holds the Figure 6 series.
type PhaseDetectionResult struct {
	Benchmark string
	Points    []PhasePoint
	Detected  int
}

// PhaseDetection reproduces Figure 6: run a workload (ocean in the paper)
// under the static configuration, observe the memory workload every
// intervalInsts instructions, and record the t-test scores and detected
// phases.
func PhaseDetection(ctx context.Context, benchmark string, totalInsts, intervalInsts uint64, opt Options) (*PhaseDetectionResult, *Report, error) {
	spec, err := trace.ByName(benchmark)
	if err != nil {
		return nil, nil, err
	}
	m, err := sim.NewMachine(spec, config.StaticBaseline(), opt.seededSim())
	if err != nil {
		return nil, nil, err
	}
	det := phase.New(intervalInsts)

	res := &PhaseDetectionResult{Benchmark: benchmark}
	var insts uint64
	for insts < totalInsts {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		w := m.RunInstructions(det.Interval())
		insts += w.Instructions
		score, newPhase := det.Observe(float64(w.MemReads + w.MemWrites))
		res.Points = append(res.Points, PhasePoint{
			Insts:       insts,
			MemRequests: w.MemReads + w.MemWrites,
			Score:       score,
			NewPhase:    newPhase,
		})
		if newPhase {
			res.Detected++
		}
	}

	tbl := Table{
		Title:  fmt.Sprintf("Figure 6: phase detection on %s (I=%d insts, threshold=%d)", benchmark, intervalInsts, phase.Threshold),
		Header: []string{"insts(M)", "mem_requests", "t_score", "phase"},
	}
	for _, p := range res.Points {
		mark := ""
		if p.NewPhase {
			mark = "<-- new phase"
		}
		tbl.AddRow(f2(float64(p.Insts)/1e6), fmt.Sprintf("%d", p.MemRequests), f2(p.Score), mark)
	}
	rep := &Report{ID: "fig6", Tables: []Table{tbl}}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d phase changes detected over %.1fM instructions", res.Detected, float64(totalInsts)/1e6))
	return res, rep, nil
}
