package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"mct/internal/config"
	"mct/internal/experiments"
	"mct/internal/sim"
)

// The sweep workloads run experiments.RunSweep over a strided slice of the
// configuration space on the NVM-only hierarchy. The legs span working set
// relative to the 2 MiB LLC: gups walks a 1 GiB random footprint, lbm
// streams 512 MiB write-heavy, and zeusmp keeps 90% of its accesses in a
// 1 MiB hot region. sweep-nvm runs the first two, where the NVM controller
// does most of the work; sweep-llc runs zeusmp, where it does almost none,
// so a controller change should move the first and leave the second.
var (
	sweepLegs    = []string{"gups", "lbm", "zeusmp"}
	sweepNVMLegs = []string{"gups", "lbm"}
	sweepLLCLegs = []string{"zeusmp"}
)

const (
	sweepStride   = 29     // 70 of the 2030 configurations per leg
	sweepAccesses = 30_000 // measured accesses per configuration
	// sweepLifetime is the lifetime target the sweep's baseline
	// configuration carries (the default 8-year objective).
	sweepLifetime = 8
)

func sweepOptions(seed int64, workers int) experiments.Options {
	o := experiments.DefaultOptions()
	o.Stride = sweepStride
	o.Accesses = sweepAccesses
	o.LifetimeTarget = sweepLifetime
	o.Seed = seed
	o.Workers = workers
	return o
}

func sweepDigest(s *experiments.Sweep) string {
	return digestOf(s.Indices, s.Metrics, s.Baseline, s.Default)
}

// sweepWork is the simulated work of one leg: measured accesses (every
// evaluated configuration plus the baseline and default runs) and the
// instructions they committed. Warmup is excluded.
func sweepWork(s *experiments.Sweep) (accesses, insts float64) {
	n := len(s.Metrics) + 2
	insts = float64(s.Baseline.Instructions + s.Default.Instructions)
	for _, m := range s.Metrics {
		insts += float64(m.Instructions)
	}
	return float64(n * sweepAccesses), insts
}

// sweepReference computes each leg's digest without experiments or engine:
// sim.Prepare and a sequential loop over Prepared.Evaluate in the order
// RunSweep reports.
func sweepReference(seed int64, legs []string) (map[string]string, error) {
	o := sweepOptions(seed, 1)
	so := o.Sim
	so.Seed = seed
	space := config.NewSpace(config.SpaceOptions{WearQuotaTarget: o.LifetimeTarget})
	out := map[string]string{}
	for _, b := range legs {
		prep, err := sim.Prepare(b, 0, o.Accesses, so)
		if err != nil {
			return nil, err
		}
		var idx []int
		var ms []sim.Metrics
		for i := 0; i < space.Len(); i += o.Stride {
			m, err := prep.Evaluate(space.At(i))
			if err != nil {
				return nil, err
			}
			idx = append(idx, i)
			ms = append(ms, m)
		}
		base := config.StaticBaseline()
		base.WearQuotaTarget = o.LifetimeTarget
		bm, err := prep.Evaluate(base)
		if err != nil {
			return nil, err
		}
		dm, err := prep.Evaluate(config.Default())
		if err != nil {
			return nil, err
		}
		out[b] = digestOf(idx, ms, bm, dm)
	}
	return out, nil
}

// sweepExpected returns the digests legs must produce for seed.
func sweepExpected(seed int64, legs []string) (map[string]string, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	if want := g.expected("sweep", seed); want != nil {
		return want, nil
	}
	fmt.Fprintf(os.Stderr, "sweep: seed %d is not pinned in golden.json; computing the reference\n", seed)
	return sweepReference(seed, legs)
}

// sweepSetup prepares the warm machine of every leg: the state each
// configuration evaluation clones.
func sweepSetup(seed int64, legs []string) (time.Duration, error) {
	so := sweepOptions(seed, 1).Sim
	so.Seed = seed
	start := time.Now()
	for _, b := range legs {
		if _, err := sim.Prepare(b, 0, sweepAccesses, so); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// runSweepLeg runs one leg with both sweep caches bypassed and checks it
// against want. It returns the leg's wall time and work; ok is false when
// the leg failed or produced a wrong digest.
func runSweepLeg(ctx context.Context, leg string, opt experiments.Options, want string) (d time.Duration, accesses, insts float64, ok bool) {
	experiments.ResetSweepCache()
	start := time.Now()
	s, err := experiments.RunSweep(ctx, leg, false, opt)
	d = time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep %s: %v\n", leg, err)
		return d, 0, 0, false
	}
	if got := sweepDigest(s); got != want {
		fmt.Fprintf(os.Stderr, "sweep %s: digest %s, want %s\n", leg, got, want)
		return d, 0, 0, false
	}
	accesses, insts = sweepWork(s)
	return d, accesses, insts, true
}

// measureSweep returns the measure function of a sweep workload over legs.
func measureSweep(legs []string) func(ctx context.Context, e env) (result, error) {
	return func(ctx context.Context, e env) (result, error) { return measureSweepLegs(ctx, e, legs) }
}

func measureSweepLegs(ctx context.Context, e env, legs []string) (result, error) {
	want, err := sweepExpected(e.seed, legs)
	if err != nil {
		return result{}, err
	}
	var m endToEnd
	for i := 0; i < setupReps; i++ {
		d, err := sweepSetup(e.seed, legs)
		if err != nil {
			return result{}, err
		}
		m.setup = append(m.setup, d)
	}

	opt := sweepOptions(e.seed, e.workers)
	var t tally
	var evals, evalTime float64
	stopRSS := sampleRSS(os.Getpid())
	start := time.Now()
	for time.Since(start).Seconds() < e.seconds {
		var busy time.Duration
		var acc, insts float64
		done := 0
		for _, leg := range legs {
			d, a, n, ok := runSweepLeg(ctx, leg, opt, want[leg])
			t.attempted++
			busy += d
			if !ok {
				t.failed++
				continue
			}
			done++
			acc += a
			insts += n
			evals += a / sweepAccesses
			m.latencies = append(m.latencies, d)
		}
		evalTime += busy.Seconds()
		s := busy.Seconds()
		m.maccessPerS = append(m.maccessPerS, acc/1e6/s)
		m.minstsPerS = append(m.minstsPerS, insts/1e6/s)
		m.opsPerS = append(m.opsPerS, float64(done)/s)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d legs, %.1f configuration evaluations/s\n", len(m.latencies), evals/evalTime)
	if m.rssKiB, err = stopRSS(); err != nil {
		return result{}, err
	}
	return m.result(t), nil
}
