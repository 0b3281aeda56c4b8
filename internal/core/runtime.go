package core

import (
	"fmt"

	"mct/internal/config"
	"mct/internal/ml"
	"mct/internal/obs"
	"mct/internal/phase"
	"mct/internal/rng"
	"mct/internal/sampling"
	"mct/internal/sim"
)

// Health checking (§5.4): after every healthCheckEvery testing chunks the
// baseline runs for one chunk, and the runtime reverts to the baseline if
// the chosen configuration's aggregate testing IPC underperforms the
// aggregate of the baseline health windows by more than healthMargin.
const (
	healthCheckEvery = 5
	healthMargin     = 0.02
)

// Options configures the MCT runtime. Instruction budgets are scaled to the
// simulator's trace lengths; the ratios mirror the paper (unit ≪ burst
// length; sampling ≈ half the testing period in the proof-of-concept).
type Options struct {
	// Model is the ml predictor family (ml.NameGBoost or
	// ml.NameQuadraticLasso in the paper's final experiments).
	Model string

	// NewPredictor, when non-nil, overrides Model with a custom predictor
	// factory (three instances are created, one per objective). This is
	// the hook for offline or hierarchical-Bayesian predictors, which need
	// offline data the runtime cannot construct itself.
	NewPredictor func() (ml.Predictor, error)

	// Space options for the learning space. MCT excludes wear quota from
	// learning (§4.4) — IncludeWearQuota should stay false; the lifetime
	// guarantee instead comes from the fixup.
	Space config.SpaceOptions

	// BaselineInsts is the baseline calibration window run before sampling
	// (normalization denominator, §4.4).
	BaselineInsts uint64
	// SampleUnitInsts is the fine-grained sampling unit t (§5.2).
	SampleUnitInsts uint64
	// SamplingTotalInsts is the total sampling budget T; the schedule
	// loops all samples in units of t for T/(N·t) rounds.
	SamplingTotalInsts uint64
	// TestChunkInsts is the granularity of testing-period execution,
	// monitoring and phase observation: it is the phase detector's
	// interval I.
	TestChunkInsts uint64

	// SampleSettleFrac is the fraction of a sampling unit run (but not
	// attributed to the sample) right after each configuration switch, so
	// queued writes issued under the previous sample's policy do not
	// contaminate the next sample's measurements.
	SampleSettleFrac float64

	// EnablePhaseDetection re-triggers learning when the detector
	// (phase.New, one observation per testing chunk) fires during the
	// testing period.
	EnablePhaseDetection bool

	// WarmupAccesses warms the system (LLC fill) before the first
	// learning cycle; 0 skips warmup. Warmup instructions do not count
	// against the Run budget.
	WarmupAccesses int

	// KeepPredictions retains the full prediction matrix in each Decision
	// (memory-heavy for large spaces; useful for analysis).
	KeepPredictions bool

	// Seed drives sample-set randomness.
	Seed int64

	// Obs, when non-nil, receives the runtime's metric family
	// (core.phases, core.decisions, per-window IPC gauges, ...). The
	// registry is typically shared with the machine's observer so one
	// dump covers every layer.
	Obs *obs.Registry

	// Events, when non-nil, receives the runtime's decision-trace events
	// (baseline/sampling/decision/health_revert/phase_change) with window
	// metrics in Event.Values.
	Events obs.TraceSink
}

// DefaultOptions returns runtime options scaled to the simulator's
// 10⁶–10⁷-instruction runs.
func DefaultOptions() Options {
	return Options{
		Model:              "gboost",
		BaselineInsts:      300_000,
		SampleUnitInsts:    25_000,
		SamplingTotalInsts: 4_500_000,
		TestChunkInsts:     100_000,
		SampleSettleFrac:   0.2,
		WarmupAccesses:     sim.DefaultWarmupAccesses,
		Seed:               42,
	}
}

// ScaledTo returns o with its budgets fitted to a run of totalInsts
// instructions at the paper's 1:2 sampling:testing proof-of-concept split,
// so a short run still reaches its testing period. Budgets within the caps
// stay: DefaultOptions is unchanged from 15M instructions up. New and Run
// never scale.
func (o Options) ScaledTo(totalInsts uint64) Options {
	if o.SamplingTotalInsts > totalInsts/3 {
		o.SamplingTotalInsts = max(totalInsts/3, 100_000)
	}
	if o.BaselineInsts > totalInsts/20 {
		o.BaselineInsts = max(totalInsts/20, 50_000)
	}
	if unit := o.SamplingTotalInsts / 100; unit < o.SampleUnitInsts {
		o.SampleUnitInsts = max(unit, 2_000)
	}
	return o
}

// Validate checks option sanity.
func (o Options) Validate() error {
	if o.BaselineInsts == 0 || o.SampleUnitInsts == 0 || o.SamplingTotalInsts == 0 || o.TestChunkInsts == 0 {
		return fmt.Errorf("core: zero instruction budget in options")
	}
	if o.SampleSettleFrac < 0 || o.SampleSettleFrac > 1 {
		return fmt.Errorf("core: sample settle fraction %g outside [0,1]", o.SampleSettleFrac)
	}
	return nil
}

// Decision records one learning outcome.
type Decision struct {
	ChosenIndex int
	Chosen      config.Config
	// Satisfied reports whether the predictor believed the constraints
	// were satisfiable; when false the fallback configuration was chosen
	// and the wear-quota fixup carries the lifetime guarantee.
	Satisfied bool
	// SampleIndices are the sampled configuration indices (into the
	// learning space).
	SampleIndices []int
	// SampleMetrics are the aggregated measurements per sample.
	SampleMetrics []sim.Metrics
	// Predictions is the full prediction matrix (only when
	// KeepPredictions).
	Predictions [][3]float64
}

// PhaseResult is the outcome of one phase's learn-and-run cycle.
type PhaseResult struct {
	Baseline sim.Metrics
	Sampling sim.Metrics
	Testing  sim.Metrics
	Decision Decision
	// PhaseChange is true when the detector ended this phase early.
	PhaseChange bool
	// Reverted is true when health checking switched back to the baseline.
	Reverted bool
}

// Result is the outcome of a Runtime.Run.
type Result struct {
	Phases []PhaseResult
	// Overall aggregates every executed window (baseline + sampling +
	// testing across phases).
	Overall sim.Metrics
	// Sampling and Testing aggregate those periods across phases
	// (the Figure 9 overhead accounting).
	Sampling sim.Metrics
	Testing  sim.Metrics

	PhaseChanges  int
	HealthReverts int
}

// System is the machine abstraction MCT controls: windowed execution plus
// online reconfiguration. *sim.Machine satisfies it directly; use
// MultiSystem for *sim.MultiMachine, which its embedded Machine would let
// through without the CPUCycles rescale.
type System interface {
	RunInstructions(n uint64) sim.Metrics
	SetConfig(cfg config.Config) error
	Options() sim.Options
	// Warmup advances the system by n memory accesses without metric
	// accounting, returning the instructions consumed (LLC warmup — cold
	// caches produce no writebacks and meaningless lifetime samples).
	Warmup(n int) uint64
}

// MultiSystem adapts a multi-core machine to the System interface (its
// window IPC is the geometric mean of per-core IPCs).
type MultiSystem struct {
	MM *sim.MultiMachine
}

// RunInstructions implements System. The window's IPC is the geometric
// mean of per-core IPCs; CPUCycles is rescaled so that
// Instructions/CPUCycles equals that IPC — aggregating such windows in a
// sim.Accum then reproduces an instruction-weighted blend of the geomean
// (instead of silently switching to a throughput-over-wallclock metric,
// which is ~Cores× larger and not comparable to single-run geomeans).
func (a MultiSystem) RunInstructions(n uint64) sim.Metrics {
	m := a.MM.RunInstructions(n)
	if m.IPC > 0 {
		m.CPUCycles = float64(m.Instructions) / m.IPC
	}
	return m
}

// SetConfig implements System.
func (a MultiSystem) SetConfig(cfg config.Config) error { return a.MM.SetConfig(cfg) }

// Options implements System.
func (a MultiSystem) Options() sim.Options { return a.MM.Options() }

// Warmup implements System.
func (a MultiSystem) Warmup(n int) uint64 { return a.MM.Warmup(n) }

// Runtime drives MCT over a live machine.
type Runtime struct {
	machine  System
	space    *config.Space
	baseline config.Config
	obj      Objective
	opt      Options
	model    *TradeoffModel
	detector *phase.Detector
	robs     *runtimeObs // nil when Options.Obs is nil
}

// New constructs an MCT runtime controlling machine under objective obj.
func New(machine System, obj Objective, opt Options) (*Runtime, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := obj.Validate(); err != nil {
		return nil, err
	}
	var tm *TradeoffModel
	var err error
	if opt.NewPredictor != nil {
		var preds [3]ml.Predictor
		for i := range preds {
			if preds[i], err = opt.NewPredictor(); err != nil {
				return nil, err
			}
		}
		tm = NewTradeoffModelWith(preds[0], preds[1], preds[2])
	} else if tm, err = NewTradeoffModel(opt.Model); err != nil {
		return nil, err
	}
	r := &Runtime{
		machine:  machine,
		space:    config.NewSpace(opt.Space),
		baseline: obj.Baseline(),
		obj:      obj,
		opt:      opt,
		model:    tm,
	}
	if opt.EnablePhaseDetection {
		r.detector = phase.New(opt.TestChunkInsts)
	}
	if opt.Obs != nil {
		r.robs = newRuntimeObs(opt.Obs)
	}
	return r, nil
}

// Space returns the learning space.
func (r *Runtime) Space() *config.Space { return r.space }

// plan builds the sample set for this phase.
func (r *Runtime) plan() sampling.Plan {
	// A fresh stream per call keeps every phase's plan identical for a
	// given seed, matching the paper's fixed sample set.
	return sampling.FeatureBased(r.space, rng.New(r.opt.Seed))
}

// Run executes MCT for totalInsts instructions and reports the aggregated
// outcome.
func (r *Runtime) Run(totalInsts uint64) (Result, error) {
	var res Result
	overall := sim.NewAccum(r.machine.Options())
	samplingAll := sim.NewAccum(r.machine.Options())
	testingAll := sim.NewAccum(r.machine.Options())

	if r.opt.WarmupAccesses > 0 {
		if err := r.machine.SetConfig(r.baseline); err != nil {
			return res, err
		}
		r.machine.Warmup(r.opt.WarmupAccesses)
	}

	remaining := totalInsts
	for remaining > 0 {
		pr, used, err := r.runPhase(len(res.Phases), remaining, overall, samplingAll, testingAll)
		if err != nil {
			return res, err
		}
		res.Phases = append(res.Phases, pr)
		if r.robs != nil {
			r.robs.phases.Inc()
		}
		if pr.PhaseChange {
			res.PhaseChanges++
			if r.robs != nil {
				r.robs.phaseChanges.Inc()
			}
		}
		if pr.Reverted {
			res.HealthReverts++
			if r.robs != nil {
				r.robs.healthReverts.Inc()
			}
		}
		if used >= remaining {
			remaining = 0
		} else {
			remaining -= used
		}
		if used == 0 {
			break // defensive: no forward progress
		}
	}
	res.Overall = overall.Metrics()
	res.Sampling = samplingAll.Metrics()
	res.Testing = testingAll.Metrics()
	return res, nil
}

// clampBudget bounds a requested window of n instructions to what remains of
// budget after used. ok is false when the budget is already exhausted
// (used ≥ budget) — computing budget-used in that state would underflow
// uint64 into a near-infinite allowance, so callers must not run at all.
// Windows can legitimately land in that state because the machine executes
// whole memory accesses and may overshoot a requested window slightly.
func clampBudget(n, budget, used uint64) (uint64, bool) {
	if used >= budget {
		return 0, false
	}
	if rem := budget - used; n > rem {
		return rem, true
	}
	return n, true
}

// runPhase performs one baseline→sample→learn→test cycle, bounded by
// budget instructions. It returns the phase outcome and instructions used.
// phaseNo labels the phase in trace events.
func (r *Runtime) runPhase(phaseNo int, budget uint64, overall, samplingAll, testingAll *sim.Accum) (PhaseResult, uint64, error) {
	var pr PhaseResult
	var used uint64

	run := func(n uint64) sim.Metrics {
		n, ok := clampBudget(n, budget, used)
		if !ok {
			return sim.Metrics{}
		}
		m := r.machine.RunInstructions(n)
		used += m.Instructions
		overall.Add(m)
		return m
	}

	// 1. Baseline calibration window.
	if err := r.machine.SetConfig(r.baseline); err != nil {
		return pr, used, err
	}
	pr.Baseline = run(r.opt.BaselineInsts)
	if r.robs != nil {
		r.robs.baselineIPC.Set(pr.Baseline.IPC)
	}
	r.emit(obs.Event{
		Item: phaseItem(phaseNo), Kind: "baseline",
		Values: map[string]float64{"ipc": pr.Baseline.IPC, "lifetime_years": pr.Baseline.LifetimeYears},
	})
	if used >= budget {
		pr.Testing = pr.Baseline // degenerate: budget too small to learn
		return pr, used, nil
	}

	// 2. Sampling period: cyclic fine-grained schedule (§5.2).
	plan := r.plan()
	sched, err := sampling.BuildSchedule(r.opt.SamplingTotalInsts, r.opt.SampleUnitInsts, plan.Len())
	if err != nil {
		return pr, used, err
	}
	accums := make([]*sim.Accum, plan.Len())
	for i := range accums {
		accums[i] = sim.NewAccum(r.machine.Options())
	}
	sampAgg := sim.NewAccum(r.machine.Options())
	settle := uint64(float64(sched.UnitInsts) * r.opt.SampleSettleFrac)
	for round := 0; round < sched.Rounds && used < budget; round++ {
		for si, cfgIdx := range plan.Indices {
			if used >= budget {
				break
			}
			if err := r.machine.SetConfig(r.space.At(cfgIdx)); err != nil {
				return pr, used, err
			}
			if settle > 0 {
				// Let queued work from the previous configuration drain
				// before attributing measurements to this sample.
				m := run(settle)
				sampAgg.Add(m)
				samplingAll.Add(m)
				if used >= budget {
					break
				}
			}
			m := run(sched.UnitInsts)
			accums[si].Add(m)
			sampAgg.Add(m)
			samplingAll.Add(m)
		}
	}
	pr.Sampling = sampAgg.Metrics()
	if r.robs != nil {
		r.robs.samplingIPC.Set(pr.Sampling.IPC)
	}
	r.emit(obs.Event{
		Item: phaseItem(phaseNo), Kind: "sampling",
		Values: map[string]float64{"ipc": pr.Sampling.IPC},
	})

	// 3. Learn and optimize.
	samples := make([]config.Config, 0, plan.Len())
	measured := make([]sim.Metrics, 0, plan.Len())
	for si, cfgIdx := range plan.Indices {
		if accums[si].Windows() == 0 {
			continue
		}
		samples = append(samples, r.space.At(cfgIdx))
		measured = append(measured, accums[si].Metrics())
	}
	pr.Decision = Decision{ChosenIndex: -1, SampleIndices: plan.Indices, SampleMetrics: measured}

	chosen := r.baseline
	if len(samples) >= 3 && pr.Baseline.IPC > 0 {
		if err := r.model.Fit(samples, measured, pr.Baseline); err != nil {
			return pr, used, fmt.Errorf("core: learning failed: %w", err)
		}
		preds := r.model.PredictAll(r.space)
		idx, ok := SelectOptimal(preds, r.obj)
		pr.Decision.ChosenIndex = idx
		pr.Decision.Satisfied = ok
		if r.opt.KeepPredictions {
			pr.Decision.Predictions = preds
		}
		if idx >= 0 {
			chosen = r.space.At(idx)
			// 4. Wear-quota fixup (§5.3): guarantee the lifetime floor
			// even under prediction error.
			if lt := r.obj.MinLifetime(); lt > 0 {
				chosen.WearQuota = true
				chosen.WearQuotaTarget = lt
			}
		}
	}
	pr.Decision.Chosen = chosen
	if r.robs != nil {
		r.robs.decisions.Inc()
		r.robs.samplesMeasured.Add(uint64(len(measured)))
		if pr.Decision.ChosenIndex >= 0 && !pr.Decision.Satisfied {
			r.robs.decisionsUnsat.Inc()
		}
	}
	r.emit(obs.Event{
		Item: phaseItem(phaseNo), Kind: "decision",
		Text: fmt.Sprintf("phase %d: chose config %d (satisfied=%v, %d samples)",
			phaseNo, pr.Decision.ChosenIndex, pr.Decision.Satisfied, len(measured)),
		Values: map[string]float64{
			"chosen_index": float64(pr.Decision.ChosenIndex),
			"samples":      float64(len(measured)),
		},
	})

	// 5. Testing period with monitoring, health checks and phase
	// detection (§5.4).
	if err := r.machine.SetConfig(chosen); err != nil {
		return pr, used, err
	}
	testAgg := sim.NewAccum(r.machine.Options())
	chosenAgg := sim.NewAccum(r.machine.Options()) // chunks under the chosen config
	healthAgg := sim.NewAccum(r.machine.Options()) // baseline health-check chunks
	chunks := 0
	for used < budget {
		m := run(r.opt.TestChunkInsts)
		testAgg.Add(m)
		chosenAgg.Add(m)
		testingAll.Add(m)
		chunks++

		if r.detector != nil {
			if _, newPhase := r.detector.Observe(float64(m.MemReads + m.MemWrites)); newPhase {
				pr.PhaseChange = true
				break
			}
		}

		if !pr.Reverted && chunks%healthCheckEvery == 0 && used < budget {
			if r.robs != nil {
				r.robs.healthChecks.Inc()
			}
			if err := r.machine.SetConfig(r.baseline); err != nil {
				return pr, used, err
			}
			bm := run(r.opt.TestChunkInsts)
			testAgg.Add(bm)
			healthAgg.Add(bm)
			testingAll.Add(bm)
			if r.detector != nil {
				if _, newPhase := r.detector.Observe(float64(bm.MemReads + bm.MemWrites)); newPhase {
					pr.PhaseChange = true
					break
				}
			}
			// Compare rolling aggregates (single chunks are too noisy for
			// a never-worse guarantee).
			if chosenAgg.Metrics().IPC < healthAgg.Metrics().IPC*(1-healthMargin) {
				// Never worse than the baseline system (§5.4).
				pr.Reverted = true
				chosen = r.baseline
				r.emit(obs.Event{
					Item: phaseItem(phaseNo), Kind: "health_revert",
					Text: fmt.Sprintf("phase %d: health check reverted to baseline", phaseNo),
					Values: map[string]float64{
						"chosen_ipc": chosenAgg.Metrics().IPC,
						"health_ipc": healthAgg.Metrics().IPC,
					},
				})
			}
			if err := r.machine.SetConfig(chosen); err != nil {
				return pr, used, err
			}
		}
	}
	pr.Testing = testAgg.Metrics()
	if r.robs != nil {
		r.robs.testingIPC.Set(pr.Testing.IPC)
	}
	if pr.PhaseChange {
		r.emit(obs.Event{
			Item: phaseItem(phaseNo), Kind: "phase_change",
			Text:   fmt.Sprintf("phase %d: phase change detected, relearning", phaseNo),
			Values: map[string]float64{"ipc": pr.Testing.IPC},
		})
	}
	return pr, used, nil
}
