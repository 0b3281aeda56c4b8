// Command mctbench regenerates the tables and figures of the paper's
// evaluation. Each experiment prints the same rows/series the paper
// reports.
//
// Usage:
//
//	mctbench -experiment fig7              # one experiment, full fidelity
//	mctbench -experiment all -quick        # everything, reduced fidelity
//	mctbench -experiment fig1 -workers 8   # bound sweep parallelism
//	mctbench -list                         # list experiment IDs
//	mctbench -experiment fig1 -quick -metrics-out results/BENCH_metrics.json
//
// Ctrl-C cancels gracefully: the current experiment aborts promptly, and
// sweeps that already completed stay valid in the MCT_SWEEP_CACHE disk
// cache (entries are written atomically, only after a sweep finishes), so
// a rerun picks up where the caches left off.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mct"
	"mct/internal/config"
)

func main() {
	var (
		expID   = flag.String("experiment", "all", "experiment ID (see -list) or 'all'")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		quick   = flag.Bool("quick", false, "reduced fidelity: strided space, short traces")
		stride  = flag.Int("stride", 0, "override configuration-space stride (0 = preset)")
		acc     = flag.Int("accesses", 0, "override trace length per evaluation (0 = preset)")
		insts   = flag.Uint64("insts", 0, "override MCT run length in instructions (0 = preset)")
		benches = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
		workers = flag.Int("workers", 0, "parallel evaluation workers (0 = GOMAXPROCS)")
		quiet   = flag.Bool("quiet", false, "suppress progress output")
		asJSON  = flag.Bool("json", false, "emit structured JSON instead of text tables")
		metrics = flag.String("metrics-out", "", "write a sorted JSON metrics dump of the experiment runs to this file")
		dram    = flag.Bool("dram", false, "run experiments on the hybrid hierarchy: DRAM cache tier between LLC and NVM")
		dramTh  = flag.Int("dram-promote", 0, "DRAM hot-page promotion threshold (0 = tier default; requires -dram)")
	)
	flag.Parse()
	// The tier composition rides in the simulator options, so every
	// machine of the invocation is built on the same hierarchy, and
	// sweep-cache entries stay distinct per composition.
	tiers := config.TierConfig{DRAMCache: *dram, DRAMPromoteThreshold: *dramTh}
	if err := checkFlags(*stride, *acc, *workers, tiers); err != nil {
		fail("flags", err)
	}

	if *list {
		for _, id := range mct.Experiments() {
			fmt.Println(id)
		}
		return
	}

	// SIGTERM too: daemon-style supervisors send it, and a graceful stop is
	// what keeps the sweep disk cache consistent.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := mct.DefaultExperimentOptions()
	if *quick {
		opt = mct.QuickExperimentOptions()
	}
	if *stride > 0 {
		opt.Stride = *stride
	}
	if *acc > 0 {
		opt.Accesses = *acc
	}
	if *benches != "" {
		opt.Benchmarks = strings.Split(*benches, ",")
	}
	opt.Sim.Tiers = tiers
	opt.Workers = *workers
	if !*quiet {
		opt.Events = mct.TextProgress(os.Stderr)
	}

	rp := runParams(*quick, *insts)

	ids := []string{*expID}
	if *expID == "all" {
		ids = mct.Experiments()
	}
	// One registry spans every experiment of the invocation; the dump it
	// yields is byte-identical at any -workers because only
	// schedule-independent instruments land in it.
	var reg *mct.Registry
	if *metrics != "" {
		reg = mct.NewRegistry()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for _, id := range ids {
		start := time.Now()
		ropts := []mct.Option{
			mct.WithExperimentOptions(opt), mct.WithRunParams(rp), mct.WithObserver(reg),
		}
		if !*asJSON {
			ropts = append(ropts, mct.WithOutput(os.Stdout))
		}
		rep, err := mct.RunExperiment(ctx, id, ropts...)
		if err != nil {
			fail(id, err)
		}
		if *asJSON {
			if err := enc.Encode(rep); err != nil {
				fail(id, err)
			}
		} else {
			fmt.Println()
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	if reg != nil {
		if err := writeFileMkdir(*metrics, reg.DumpJSON()); err != nil {
			fail("metrics-out", err)
		}
		fmt.Fprintf(os.Stderr, "metrics dump written to %s\n", *metrics)
	}
}

// checkFlags rejects flag values that would otherwise be ignored: a
// negative -stride, -accesses or -workers reads as the default, and a
// bad -dram-promote would only fail once an experiment builds a machine.
func checkFlags(stride, accesses, workers int, tiers config.TierConfig) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"stride", stride}, {"accesses", accesses}, {"workers", workers}} {
		if f.v < 0 {
			return fmt.Errorf("-%s %d: want 0 (the default) or a positive count", f.name, f.v)
		}
	}
	return tiers.Validate()
}

// runParams resolves the experiment scales: the -quick or default preset,
// then an -insts override on top of either.
func runParams(quick bool, insts uint64) mct.ExperimentRunParams {
	rp := mct.DefaultExperimentRunParams()
	if quick {
		rp = mct.QuickExperimentRunParams()
	}
	if insts > 0 {
		rp.TotalInsts = insts
	}
	return rp
}

// writeFileMkdir writes data to path, creating the parent directory.
func writeFileMkdir(path string, data []byte) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}

// fail reports an experiment error and exits. Interruption (ctrl-C) is
// reported distinctly — completed sweeps remain cached on disk — and uses
// the conventional 130 exit status.
func fail(id string, err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "mctbench: %s interrupted; completed sweeps remain cached\n", id)
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "mctbench: %s: %v\n", id, err)
	os.Exit(1)
}
