// Command mcttrace inspects the synthetic workload generators: per-window
// access intensity, read/write mix, footprint and locality — useful for
// verifying the cross-application diversity the learning framework relies
// on. Traces are streamed in batches, never materialized, so arbitrarily
// long profiles run in O(batch) memory (plus the footprint line set).
//
// Usage:
//
//	mcttrace                      # summary of all benchmarks
//	mcttrace -benchmark ocean -windows 40   # windowed profile (phases)
package main

import (
	"flag"
	"fmt"
	"os"

	"mct/internal/rng"
	"mct/internal/trace"
)

// batchSize is the streaming granularity (matches sim.StepBatchSize).
const batchSize = 4096

func main() {
	var (
		bench    = flag.String("benchmark", "", "profile a single benchmark by window")
		accesses = flag.Int("accesses", 200_000, "accesses to generate")
		windows  = flag.Int("windows", 20, "windows for the per-window profile")
		seed     = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()
	if err := checkFlags(*accesses, *windows); err != nil {
		fmt.Fprintln(os.Stderr, "mcttrace:", err)
		os.Exit(1)
	}

	buf := make([]trace.Access, batchSize)

	if *bench == "" {
		fmt.Printf("%-12s %8s %8s %9s %10s %8s\n", "benchmark", "MPKI", "wr-frac", "insts(M)", "lines", "pages")
		for _, name := range trace.Names() {
			spec, _ := trace.ByName(name)
			summary(name, trace.NewGenerator(spec, rng.NewRand(*seed)), *accesses, buf)
		}
		return
	}

	spec, err := trace.ByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcttrace:", err)
		os.Exit(1)
	}
	g := trace.NewGenerator(spec, rng.NewRand(*seed))
	fmt.Printf("%-8s %10s %8s %8s\n", "window", "insts", "MPKI", "wr-frac")
	for w, n := range windowSizes(*accesses, *windows) {
		var insts uint64
		writes := 0
		for rem := n; rem > 0; {
			k := min(len(buf), rem)
			g.Fill(buf[:k])
			for _, a := range buf[:k] {
				insts += uint64(a.InstGap)
				if a.Write {
					writes++
				}
			}
			rem -= k
		}
		mpki := float64(n) / float64(insts) * 1000
		fmt.Printf("%-8d %10d %8.2f %8.3f\n", w, insts, mpki, float64(writes)/float64(n))
	}
}

// checkFlags rejects counts the profile cannot use: zero windows divide by
// zero, negative ones never finish, and zero accesses print NaN rows.
func checkFlags(accesses, windows int) error {
	if accesses <= 0 {
		return fmt.Errorf("-accesses %d: want a positive count", accesses)
	}
	if windows <= 0 {
		return fmt.Errorf("-windows %d: want a positive count", windows)
	}
	return nil
}

// windowSizes splits accesses into the profile's windows: windows equal
// windows with the remainder folded into the last, or a single window when
// there are fewer accesses than windows.
func windowSizes(accesses, windows int) []int {
	per := accesses / windows
	if per == 0 {
		return []int{accesses}
	}
	sizes := make([]int, windows)
	for i := range sizes {
		sizes[i] = per
	}
	sizes[windows-1] += accesses % windows
	return sizes
}

// summary streams n accesses of g and prints aggregate intensity, write
// mix, instruction count, and the footprint at both migration
// granularities: unique 64 B lines (LLC) and unique 4 KiB pages — the
// granularity the DRAM tier's hot-page promotion policy tracks, so
// lines/pages hints how much a page-grained migration can coalesce.
func summary(name string, g *trace.Generator, n int, buf []trace.Access) {
	const pageBytes = 4096
	var insts uint64
	var writes int
	lines := map[uint64]struct{}{}
	pages := map[uint64]struct{}{}
	for done := 0; done < n; {
		k := min(len(buf), n-done)
		g.Fill(buf[:k])
		for _, a := range buf[:k] {
			insts += uint64(a.InstGap)
			if a.Write {
				writes++
			}
			lines[a.Addr/trace.LineBytes] = struct{}{}
			pages[a.Addr/pageBytes] = struct{}{}
		}
		done += k
	}
	fmt.Printf("%-12s %8.2f %8.3f %9.2f %10d %8d\n",
		name,
		float64(n)/float64(insts)*1000,
		float64(writes)/float64(n),
		float64(insts)/1e6,
		len(lines),
		len(pages))
}
