package main

import (
	"fmt"
	"os"
	"time"

	"mct/internal/config"
	"mct/internal/core"
	"mct/internal/ml"
	"mct/internal/sim"
	"mct/internal/trace"
)

// The MCT legs run the online MCT loop — per-access RunInstructions
// stepping, SetConfig between sampling windows, Fit and PredictAll over the
// learning space — which the sweep never touches. Four single-core legs run
// on the llc>dram>nvm hierarchy; mix1 runs on the 4-core MultiMachine
// through core.MultiSystem. They are measured in the traced run's ledger
// (ledger.go), not as an end-to-end workload: on a shared two-core host
// their run-to-run spread exceeded the end-to-end bound.
type mctLeg struct {
	name  string
	multi bool
}

var mctLegs = []mctLeg{{"zeusmp", false}, {"ocean", false}, {"gups", false}, {"lbm", false}, {"mix1", true}}

const (
	mctInsts    = 10_000_000 // instructions per Runtime.Run
	mctLifetime = 8          // the default objective's lifetime floor (years)
)

func mctObjective() core.Objective { return core.Default(mctLifetime) }

// mctOptions are the runtime defaults with gboost and phase detection on.
// The timed runs start from a pre-warmed machine, so they skip the
// runtime's own warmup.
func mctOptions(seed int64, l mctLeg, runtimeWarmup bool) core.Options {
	ro := core.DefaultOptions()
	ro.Model = ml.NameGBoost
	ro.EnablePhaseDetection = true
	ro.Seed = seed
	ro.WarmupAccesses = 0
	if runtimeWarmup {
		ro.WarmupAccesses = mctWarmup(l)
	}
	return ro
}

func mctWarmup(l mctLeg) int {
	if l.multi {
		return 4 * sim.DefaultWarmupAccesses // fills the 8 MB shared LLC
	}
	return sim.DefaultWarmupAccesses
}

// mctTemplate is one leg's machine, built and optionally warmed once; every
// run starts from a clone.
type mctTemplate struct {
	m  *sim.Machine
	mm *sim.MultiMachine
}

// newMCTTemplate builds leg l's machine. With warm set it applies the
// runtime's warmup itself — the baseline configuration, then the warmup
// accesses — so a Run with WarmupAccesses 0 on a clone steps exactly the
// accesses a Run with the runtime's warmup steps on a fresh machine.
func newMCTTemplate(l mctLeg, seed int64, warm bool) (mctTemplate, error) {
	baseline := config.StaticBaseline()
	baseline.WearQuotaTarget = mctLifetime
	if l.multi {
		specs, err := trace.MixByName(l.name)
		if err != nil {
			return mctTemplate{}, err
		}
		mo := sim.DefaultMultiOptions()
		mo.Seed = seed
		mm, err := sim.NewMultiMachine(specs, config.StaticBaseline(), mo)
		if err != nil {
			return mctTemplate{}, err
		}
		if warm {
			if err := mm.SetConfig(baseline); err != nil {
				return mctTemplate{}, err
			}
			mm.Warmup(mctWarmup(l))
		}
		return mctTemplate{mm: mm}, nil
	}
	spec, err := trace.ByName(l.name)
	if err != nil {
		return mctTemplate{}, err
	}
	so := sim.DefaultOptions()
	so.Seed = seed
	so.Tiers = config.TierConfig{DRAMCache: true}
	m, err := sim.NewMachine(spec, config.StaticBaseline(), so)
	if err != nil {
		return mctTemplate{}, err
	}
	if warm {
		if err := m.SetConfig(baseline); err != nil {
			return mctTemplate{}, err
		}
		m.Warmup(mctWarmup(l))
	}
	return mctTemplate{m: m}, nil
}

// fresh returns an independent copy of the template as a core.System.
func (t mctTemplate) fresh() core.System {
	if t.mm != nil {
		return core.MultiSystem{MM: t.mm.Clone()}
	}
	return t.m.Clone()
}

func mctDigest(r core.Result) string { return digestOf(r) }

// runMCT runs one MCT execution on sys and returns its result and wall time.
func runMCT(sys core.System, ro core.Options) (core.Result, time.Duration, error) {
	start := time.Now()
	rt, err := core.New(sys, mctObjective(), ro)
	if err != nil {
		return core.Result{}, 0, err
	}
	res, err := rt.Run(mctInsts)
	return res, time.Since(start), err
}

// mctReference computes each leg's digest on a fresh, unwarmed machine with
// the runtime doing its own warmup — a second path to the timed runs, which
// clone a machine warmed outside the runtime.
func mctReference(seed int64) (map[string]string, error) {
	out := map[string]string{}
	for _, l := range mctLegs {
		t, err := newMCTTemplate(l, seed, false)
		if err != nil {
			return nil, err
		}
		res, _, err := runMCT(t.fresh(), mctOptions(seed, l, true))
		if err != nil {
			return nil, err
		}
		out[l.name] = mctDigest(res)
	}
	return out, nil
}

func mctExpected(seed int64) (map[string]string, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	if want := g.expected("mct", seed); want != nil {
		return want, nil
	}
	fmt.Fprintf(os.Stderr, "mct: seed %d is not pinned in golden.json; computing the reference\n", seed)
	return mctReference(seed)
}

// mctSetup builds and warms every leg's template.
func mctSetup(seed int64) ([]mctTemplate, time.Duration, error) {
	start := time.Now()
	ts := make([]mctTemplate, len(mctLegs))
	for i, l := range mctLegs {
		t, err := newMCTTemplate(l, seed, true)
		if err != nil {
			return nil, 0, err
		}
		ts[i] = t
	}
	return ts, time.Since(start), nil
}
