// Multi-program workloads: the paper's §6.2.5 scenario — a 4-core system
// with a shared 8 MB LLC and an 8 GB, 32-bank resistive main memory running
// one benchmark per core. MCT tunes the shared memory controller for the
// whole mix, with performance reported as the geometric mean of per-core
// IPCs.
//
//	go run ./examples/multiprogram
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"mct"
)

func main() {
	ctx := context.Background()
	const insts = 12_000_000

	fmt.Printf("%-6s %-42s %10s %10s %10s %12s\n",
		"mix", "members", "def IPC", "static", "MCT", "MCT life(y)")

	obj := mct.DefaultObjective(8)
	for _, mix := range mct.Mixes() {
		// Reference runs under the two fixed policies; the static one is
		// the baseline at the objective's lifetime floor.
		refIPC := map[string]float64{}
		for _, ref := range []struct {
			label string
			cfg   mct.Config
		}{
			{"default", mct.DefaultConfig()},
			{"static", obj.Baseline()},
		} {
			mm, err := mct.NewMixMachine(ctx, mix, ref.cfg)
			if err != nil {
				log.Fatal(err)
			}
			mm.Warmup(mct.MultiWarmupAccesses)
			w := mm.RunInstructions(insts)
			refIPC[ref.label] = w.IPC
		}

		// MCT controls the shared memory system.
		mm, err := mct.NewMixMachine(ctx, mix, mct.StaticBaseline())
		if err != nil {
			log.Fatal(err)
		}
		ro := mct.DefaultRuntimeOptions().ScaledTo(insts)
		ro.WarmupAccesses = mct.MultiWarmupAccesses
		rt, err := mct.NewMultiRuntime(ctx, mm, obj, mct.WithRuntimeOptions(ro))
		if err != nil {
			log.Fatal(err)
		}
		res, err := rt.Run(insts)
		if err != nil {
			log.Fatal(err)
		}

		members, err := mct.MixMembers(mix)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %-42s %10.3f %10.3f %10.3f %12.2f\n",
			mix, strings.Join(members, "+"),
			refIPC["default"]/refIPC["static"], 1.0,
			res.Testing.IPC/refIPC["static"], res.Testing.LifetimeYears)
	}
	fmt.Println("\nIPC columns are geometric-mean per-core IPC normalized to the static policy.")
}
