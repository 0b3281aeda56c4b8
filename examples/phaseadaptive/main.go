// Phase-adaptive MCT: the ocean workload alternates between stencil
// sweeps, compute-dominated spans, relaxation steps and boundary exchanges
// with very different memory behaviour (the paper's Figure 6 subject). With
// phase detection enabled, MCT's t-test detector recognizes dramatic shifts
// in memory workload and re-triggers the learning cycle, so each phase gets
// its own configuration.
//
//	go run ./examples/phaseadaptive
package main

import (
	"context"
	"fmt"
	"log"

	"mct"
)

func main() {
	ctx := context.Background()
	const insts = 40_000_000

	machine, err := mct.NewMachine(ctx, "ocean", mct.StaticBaseline())
	if err != nil {
		log.Fatal(err)
	}
	ro := mct.DefaultRuntimeOptions()
	ro.EnablePhaseDetection = true
	// Scale the detector interval to the simulated run length (the paper
	// uses I=1M instructions with 100·I/1000·I windows on 2B-instruction
	// runs): the short window must fit inside one of ocean's coarse
	// phases. The runtime observes once per testing chunk, so the chunk
	// size sets the detector interval.
	ro.TestChunkInsts = 25_000

	runtime, err := mct.NewRuntime(ctx, machine, mct.DefaultObjective(8), mct.WithRuntimeOptions(ro))
	if err != nil {
		log.Fatal(err)
	}
	res, err := runtime.Run(insts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("MCT on ocean with phase detection (%d instructions)\n\n", insts)
	fmt.Printf("%d phase changes detected, %d learning cycles\n\n", res.PhaseChanges, len(res.Phases))
	for i, ph := range res.Phases {
		end := "(budget exhausted)"
		if ph.PhaseChange {
			end = "(phase change detected)"
		}
		fmt.Printf("cycle %d %s\n", i+1, end)
		fmt.Printf("  chosen: %v\n", ph.Decision.Chosen)
		fmt.Printf("  testing: IPC=%.3f lifetime=%.1fy energy=%.4gJ over %.1fM insts\n\n",
			ph.Testing.IPC, ph.Testing.LifetimeYears, ph.Testing.EnergyJ,
			float64(ph.Testing.Instructions)/1e6)
	}

	// Static reference on the identical workload.
	ref, err := mct.NewMachine(ctx, "ocean", mct.StaticBaseline())
	if err != nil {
		log.Fatal(err)
	}
	ref.Warmup(60_000)
	w := ref.RunInstructions(insts)
	fmt.Printf("static policy reference: IPC=%.3f lifetime=%.1fy energy=%.4gJ\n",
		w.IPC, w.LifetimeYears, w.EnergyJ)
	fmt.Printf("MCT overall:             IPC=%.3f lifetime=%.1fy energy=%.4gJ\n",
		res.Overall.IPC, res.Overall.LifetimeYears, res.Overall.EnergyJ)
}
