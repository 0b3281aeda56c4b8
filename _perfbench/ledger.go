package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"mct/api"
	"mct/internal/config"
	"mct/internal/core"
	"mct/internal/engine"
	"mct/internal/experiments"
	"mct/internal/ml"
	"mct/internal/sim"
	"mct/internal/trace"
)

// The traced run (--trace 1) produces the per-layer ledger. It measures
// every layer on every invocation — the layer split with its exactness
// guard, the engine, the MCT runtime and its models, the daemon and the
// wire API — so each per-layer metric is always present, and then reports
// trace_overhead for the named workload: how much slower one unit of that
// workload's work runs with spans recorded than without. Spans are written
// to .bench_build/traces at the end.

// ledger collects per-layer metrics.
type ledger map[string]metric

func (l ledger) put(name string, v float64, unit string) { l[name] = metric{v, unit} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// inputs are the reference outputs and prepared state the traced run
// computes once and shares between its parts.
type inputs struct {
	sweepWant map[string]string
	mctWant   map[string]string
	mct       []mctTemplate
	serveJobs []serveJob
	units     int // serve units run so far, for distinct state directories
}

func runLedger(ctx context.Context, name string, w workload, e env) (result, error) {
	spans := newSpanLog()
	L := ledger{}
	var t tally

	start := time.Now()
	in := &inputs{}
	var err error
	if in.sweepWant, err = sweepExpected(e.seed, sweepLegs); err != nil {
		return result{}, err
	}
	if in.mctWant, err = mctExpected(e.seed); err != nil {
		return result{}, err
	}
	if in.mct, _, err = mctSetup(e.seed); err != nil {
		return result{}, err
	}
	if in.serveJobs, err = prepareServeJobs(ctx, e.seed, e.workers); err != nil {
		return result{}, err
	}
	logf("ledger: references %.1fs", time.Since(start).Seconds())
	if err := ledgerSplit(L, &t, e, spans); err != nil {
		return result{}, fmt.Errorf("layer split: %w", err)
	}
	logf("ledger: layer split %.1fs", time.Since(start).Seconds())
	if err := ledgerSweep(ctx, L, &t, e, in, spans); err != nil {
		return result{}, fmt.Errorf("sweep layers: %w", err)
	}
	logf("ledger: sweep layers %.1fs", time.Since(start).Seconds())
	if err := ledgerMCT(L, &t, e, in, spans); err != nil {
		return result{}, fmt.Errorf("mct layers: %w", err)
	}
	logf("ledger: mct layers %.1fs", time.Since(start).Seconds())
	if err := ledgerML(ctx, L, e); err != nil {
		return result{}, fmt.Errorf("ml rows: %w", err)
	}
	logf("ledger: ml rows %.1fs", time.Since(start).Seconds())
	if err := ledgerServe(ctx, L, &t, e, in, spans); err != nil {
		return result{}, fmt.Errorf("server layers: %w", err)
	}
	logf("ledger: server layers %.1fs", time.Since(start).Seconds())

	// Tracing overhead: alternate untraced and traced units of the named
	// workload for the run's measured seconds.
	var plain, traced []float64
	loop := time.Now()
	for len(plain) == 0 || time.Since(loop).Seconds() < e.seconds {
		u, ut, err := w.traceOverhead(ctx, e, in, nil)
		if err != nil {
			return result{}, err
		}
		tr, tt, err := w.traceOverhead(ctx, e, in, spans)
		if err != nil {
			return result{}, err
		}
		t.add(ut)
		t.add(tt)
		plain = append(plain, u.Seconds())
		traced = append(traced, tr.Seconds())
	}
	L.put("trace_overhead", median(traced)/median(plain), "ratio")
	logf("ledger: trace overhead (%d pairs) %.1fs", len(plain), time.Since(start).Seconds())

	out := filepath.Join(filepath.Dir(filepath.Dir(e.workDir)), "traces", fmt.Sprintf("%s-seed%d.json", name, e.seed))
	if err := spans.write(out); err != nil {
		return result{}, err
	}
	logf("ledger: spans written to %s", out)
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: L}, nil
}

// splitBenchmarks, each on the NVM-only and the DRAM-cache hierarchy, cover
// every single-core leg the workloads simulate: the sweep's legs NVM-only,
// the mct legs with the DRAM cache, and the daemon's job pool on both.
var splitBenchmarks = []string{"gups", "lbm", "zeusmp", "ocean"}

const (
	splitConfigs  = 3      // configurations measured per leg
	splitAccesses = 30_000 // measured accesses per configuration, as in the sweep
)

// splitConfigsFor draws the seed's configurations from the sweep space.
func splitConfigsFor(seed int64) []config.Config {
	space := config.NewSpace(config.SpaceOptions{})
	r := rand.New(rand.NewSource(seed))
	var cfgs []config.Config
	for i := 0; i < splitConfigs; i++ {
		cfgs = append(cfgs, space.At(r.Intn(space.Len())))
	}
	return cfgs
}

// ledgerSplit measures the trace/cache/dram/nvm/sim split on every leg and
// checks the composed pipelines against the simulator. The NVM-only gups
// leg's split is reported on its own, beside the CPU profile of an untraced
// gups sweep leg (profileShares).
func ledgerSplit(L ledger, t *tally, e env, spans *spanLog) error {
	cfgs := splitConfigsFor(e.seed)
	var all, gups legSplit
	op := spans.op()
	for _, bench := range splitBenchmarks {
		for _, hybrid := range []bool{false, true} {
			o := sim.DefaultOptions()
			o.Seed = e.seed
			o.Tiers = config.TierConfig{DRAMCache: hybrid}
			s, err := splitLeg(bench, o, cfgs, splitAccesses, spans, op)
			if err != nil {
				return err
			}
			all.add(s)
			if bench == "gups" && !hybrid {
				gups = s
			}
		}
	}
	for _, cfg := range cfgs[:2] {
		all.guardChecks++
		diff, err := multiGuard("mix1", e.seed, cfg, 1_000_000)
		if err != nil {
			return err
		}
		if diff != "" {
			all.guardFailures++
			logf("guard mix1 %s: %s", cfg, diff)
		}
	}
	t.attempted += all.guardChecks
	t.failed += all.guardFailures
	L.put("guard.legs_checked", float64(all.guardChecks), "count")

	n := all.accesses
	perAccess := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	L.put("sim.step_ns_per_access", perAccess(all.step), "ns")
	L.put("sim.self_ns_per_access", perAccess(all.step-all.fill-all.cache-all.dramSelf-all.nvm), "ns")
	L.put("trace.fill_ns_per_access", perAccess(all.fill), "ns")
	L.put("cache.access_ns", perAccess(all.access), "ns")
	L.put("cache.eager_scan_ns_per_access", perAccess(all.cache-all.access), "ns")
	L.put("cache.eager_victim_ratio", ratio(all.victims, all.scans), "ratio")
	L.put("cache.miss_ratio", ratio(all.misses, all.hits+all.misses), "ratio")
	L.put("nvm.ns_per_call", ratio(float64(all.nvm.Nanoseconds()), all.nvmCalls), "ns")
	L.put("nvm.calls_per_access", all.nvmCalls/n, "count")
	L.put("nvm.queue_full_ratio", ratio(all.queueFull, all.demandWrites), "ratio")
	L.put("nvm.cancel_ratio", ratio(all.cancelled, all.demandWrites+all.eagerWrites), "ratio")
	L.put("nvm.drain_us", us(all.drain)/float64(all.drains), "us")
	L.put("dram.ns_per_call", ratio(float64(all.dramSelf.Nanoseconds()), all.dramCalls), "ns")
	L.put("dram.hit_rate", ratio(all.dramHits, all.dramHits+all.dramMisses), "ratio")

	step := float64(gups.step)
	L.put("replay.share.trace", float64(gups.fill)/step, "ratio")
	L.put("replay.share.cache", float64(gups.cache)/step, "ratio")
	L.put("replay.share.nvm", float64(gups.nvm)/step, "ratio")
	L.put("replay.share.sim", float64(gups.step-gups.fill-gups.cache-gups.nvm)/step, "ratio")

	// sim.Machine.Clone of a warm machine: the per-evaluation copy a sweep
	// makes.
	spec, err := trace.ByName("gups")
	if err != nil {
		return err
	}
	o := sim.DefaultOptions()
	o.Seed = e.seed
	m, err := sim.NewMachine(spec, config.Default(), o)
	if err != nil {
		return err
	}
	m.Warmup(sim.DefaultWarmupAccesses)
	var clones []float64
	for i := 0; i < 50; i++ {
		start := time.Now()
		m.Clone()
		clones = append(clones, us(time.Since(start)))
	}
	L.put("sim.clone_us", median(clones), "us")
	return nil
}

// profileShares runs the gups sweep leg untraced under the CPU profiler and
// returns the flat share of each simulator package from go tool pprof -top.
func profileShares(ctx context.Context, e env, want string, t *tally) (map[string]float64, error) {
	path := filepath.Join(e.workDir, "sweep-gups.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	opt := sweepOptions(e.seed, e.workers)
	for i := 0; i < 2; i++ {
		_, _, _, ok := runSweepLeg(ctx, "gups", opt, want)
		t.attempted++
		if !ok {
			t.failed++
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=100000", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+e.workDir)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{"nvm": 0, "cache": 0, "trace": 0, "sim": 0}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		fn := strings.Join(f[5:], " ")
		for pkg := range shares {
			if strings.HasPrefix(fn, "mct/internal/"+pkg+".") {
				shares[pkg] += pct / 100
			}
		}
	}
	return shares, nil
}

// sweepUnit is one traced (or untraced) pass over the sweep legs, composed
// from sim.Prepare and engine.Map so each evaluation can carry a span.
type sweepUnit struct {
	wall     time.Duration
	busy     time.Duration
	evals    []float64 // per-evaluation milliseconds (traced only)
	prepares []float64 // milliseconds per sim.Prepare
	t        tally
}

func runSweepUnit(ctx context.Context, e env, legs []string, want map[string]string, spans *spanLog) (sweepUnit, error) {
	var u sweepUnit
	opt := sweepOptions(e.seed, e.workers)
	so := opt.Sim
	so.Seed = e.seed
	space := config.NewSpace(config.SpaceOptions{WearQuotaTarget: opt.LifetimeTarget})
	var idx []int
	for i := 0; i < space.Len(); i += opt.Stride {
		idx = append(idx, i)
	}
	base := config.StaticBaseline()
	base.WearQuotaTarget = opt.LifetimeTarget
	start := time.Now()
	for _, leg := range legs {
		op := spans.op()
		root := spans.start(op, 0, "experiments.sweep "+leg)
		ps := time.Now()
		prep, err := sim.Prepare(leg, 0, opt.Accesses, so)
		if err != nil {
			return u, err
		}
		spans.add(op, root, "sim.Prepare", ps, time.Now())
		u.prepares = append(u.prepares, ms(time.Since(ps)))
		durs := make([]time.Duration, len(idx))
		metrics, err := engine.Map(ctx, len(idx), engine.Options{Workers: opt.Workers}, func(ctx context.Context, k int) (sim.Metrics, error) {
			if spans == nil {
				return prep.Evaluate(space.At(idx[k]))
			}
			s := time.Now()
			m, err := prep.Evaluate(space.At(idx[k]))
			end := time.Now()
			durs[k] = end.Sub(s)
			spans.add(op, root, "sim.Prepared.Evaluate", s, end)
			return m, err
		})
		if err != nil {
			return u, err
		}
		bm, err := prep.Evaluate(base)
		if err != nil {
			return u, err
		}
		dm, err := prep.Evaluate(config.Default())
		if err != nil {
			return u, err
		}
		spans.end(root)
		for _, d := range durs {
			u.busy += d
			u.evals = append(u.evals, ms(d))
		}
		u.t.attempted++
		if got := digestOf(idx, metrics, bm, dm); got != want[leg] {
			u.t.failed++
			logf("traced sweep %s: digest %s, want %s", leg, got, want[leg])
		}
	}
	u.wall = time.Since(start)
	return u, nil
}

// sweepTraceOverhead returns the trace-overhead unit of a sweep workload
// over legs.
func sweepTraceOverhead(legs []string) func(ctx context.Context, e env, in *inputs, spans *spanLog) (time.Duration, tally, error) {
	return func(ctx context.Context, e env, in *inputs, spans *spanLog) (time.Duration, tally, error) {
		u, err := runSweepUnit(ctx, e, legs, in.sweepWant, spans)
		return u.wall, u.t, err
	}
}

// ledgerSweep measures the engine, Prepare and the profile cross-check.
func ledgerSweep(ctx context.Context, L ledger, t *tally, e env, in *inputs, spans *spanLog) error {
	u, err := runSweepUnit(ctx, e, sweepLegs, in.sweepWant, spans)
	if err != nil {
		return err
	}
	t.add(u.t)
	L.put("sim.prepare_ms", median(u.prepares), "ms")
	// Utilization over the whole pass: Prepare and the serial baseline and
	// default evaluations of each leg count as idle workers.
	L.put("engine.utilization", u.busy.Seconds()/(u.wall.Seconds()*float64(e.workers)), "ratio")
	L.put("engine.eval_ms_p50", quantile(u.evals, 0.5), "ms")
	L.put("engine.eval_ms_p99", quantile(u.evals, 0.99), "ms")

	shares, err := profileShares(ctx, e, in.sweepWant["gups"], t)
	if err != nil {
		return err
	}
	for pkg, v := range shares {
		L.put("profile.flat_share."+pkg, v, "ratio")
	}
	return nil
}

// timingSystem wraps a core.System and times every window and
// reconfiguration the runtime asks for.
type timingSystem struct {
	inner       core.System
	spans       *spanLog
	op, parent  int64
	windows     []time.Duration
	gaps        []time.Duration
	lastEnd     time.Time
	setConfigs  int
	setConfigDT time.Duration
}

func (s *timingSystem) RunInstructions(n uint64) sim.Metrics {
	start := time.Now()
	if !s.lastEnd.IsZero() {
		s.gaps = append(s.gaps, start.Sub(s.lastEnd))
	}
	m := s.inner.RunInstructions(n)
	end := time.Now()
	s.windows = append(s.windows, end.Sub(start))
	s.spans.add(s.op, s.parent, "sim.window", start, end)
	s.lastEnd = end
	return m
}

func (s *timingSystem) SetConfig(cfg config.Config) error {
	start := time.Now()
	err := s.inner.SetConfig(cfg)
	end := time.Now()
	s.setConfigs++
	s.setConfigDT += end.Sub(start)
	s.spans.add(s.op, s.parent, "sim.SetConfig", start, end)
	return err
}

func (s *timingSystem) Options() sim.Options { return s.inner.Options() }
func (s *timingSystem) Warmup(n int) uint64  { return s.inner.Warmup(n) }

// mlTimes accumulates predictor time seen through core.Options.NewPredictor.
type mlTimes struct {
	fits       []time.Duration
	predicts   int
	predictDT  time.Duration
	spans      *spanLog
	op, parent int64
}

// timedPredictor times Fit and Predict of a wrapped predictor.
type timedPredictor struct {
	ml.Predictor
	rec *mlTimes
}

func (p timedPredictor) Fit(X [][]float64, y []float64) error {
	start := time.Now()
	err := p.Predictor.Fit(X, y)
	end := time.Now()
	p.rec.fits = append(p.rec.fits, end.Sub(start))
	p.rec.spans.add(p.rec.op, p.rec.parent, "ml.Fit", start, end)
	return err
}

func (p timedPredictor) Predict(x []float64) float64 {
	start := time.Now()
	v := p.Predictor.Predict(x)
	p.rec.predicts++
	p.rec.predictDT += time.Since(start)
	return v
}

// mctUnit is one pass over the mct legs, traced or not.
type mctUnit struct {
	wall      time.Duration
	runWall   time.Duration
	windows   []time.Duration
	setCfgs   int
	setCfgDT  time.Duration
	decisions []time.Duration
	ml        mlTimes
	runs      int
	t         tally
}

func runMCTUnit(e env, ts []mctTemplate, want map[string]string, spans *spanLog) (mctUnit, error) {
	var u mctUnit
	start := time.Now()
	for i, l := range mctLegs {
		sys := ts[i].fresh()
		ro := mctOptions(e.seed, l, false)
		op := spans.op()
		root := spans.start(op, 0, "core.Runtime.Run "+l.name)
		var tsys *timingSystem
		if spans != nil {
			tsys = &timingSystem{inner: sys, spans: spans, op: op, parent: root}
			sys = tsys
			u.ml.spans, u.ml.op, u.ml.parent = spans, op, root
			ro.NewPredictor = func() (ml.Predictor, error) {
				p, err := ml.New(ro.Model)
				return timedPredictor{p, &u.ml}, err
			}
		}
		res, d, err := runMCT(sys, ro)
		spans.end(root)
		u.t.attempted++
		if err != nil {
			u.t.failed++
			logf("traced mct %s: %v", l.name, err)
			continue
		}
		if got := mctDigest(res); got != want[l.name] {
			u.t.failed++
			logf("traced mct %s: digest %s, want %s", l.name, got, want[l.name])
		}
		u.runWall += d
		u.runs++
		if tsys != nil {
			u.windows = append(u.windows, tsys.windows...)
			u.setCfgs += tsys.setConfigs
			u.setCfgDT += tsys.setConfigDT
			// The decision gap — Fit, PredictAll and the choice — is the
			// longest pause between windows in each phase.
			gaps := append([]time.Duration(nil), tsys.gaps...)
			sort.Slice(gaps, func(a, b int) bool { return gaps[a] > gaps[b] })
			u.decisions = append(u.decisions, gaps[:min(len(res.Phases), len(gaps))]...)
		}
	}
	u.wall = time.Since(start)
	return u, nil
}

// ledgerMCT measures the runtime's windows, decisions and models.
func ledgerMCT(L ledger, t *tally, e env, in *inputs, spans *spanLog) error {
	u, err := runMCTUnit(e, in.mct, in.mctWant, spans)
	if err != nil {
		return err
	}
	t.add(u.t)
	var win time.Duration
	for _, w := range u.windows {
		win += w
	}
	var fit time.Duration
	for _, f := range u.ml.fits {
		fit += f
	}
	runs := float64(u.runs)
	L.put("sim.window_us", us(win)/float64(len(u.windows)), "us")
	L.put("core.windows", float64(len(u.windows))/runs, "count")
	L.put("core.set_configs", float64(u.setCfgs)/runs, "count")
	L.put("core.decision_ms", median(durMillis(u.decisions)), "ms")
	self := u.runWall - win - u.setCfgDT - fit - u.ml.predictDT
	L.put("core.self_share", self.Seconds()/u.runWall.Seconds(), "ratio")
	L.put("ml.fit_ms", ms(fit)/float64(len(u.ml.fits)), "ms")
	L.put("ml.predict_us", us(u.ml.predictDT)/float64(u.ml.predicts), "us")
	return nil
}

// ledgerML times the Table-7 model costs on configuration vectors and
// normalized IPC targets from a sweep of lbm.
func ledgerML(ctx context.Context, L ledger, e env) error {
	opt := sweepOptions(e.seed, e.workers)
	opt.Stride = 10
	opt.Accesses = 8_000
	experiments.ResetSweepCache()
	s, err := experiments.RunSweep(ctx, "lbm", false, opt)
	if err != nil {
		return err
	}
	X, y := s.Vectors(), s.Targets(core.MetricIPC, true)
	perm := rand.New(rand.NewSource(e.seed)).Perm(len(X))
	Xp := make([][]float64, len(X))
	yp := make([]float64, len(y))
	for i, j := range perm {
		Xp[i], yp[i] = X[j], y[j]
	}
	space := config.NewSpace(config.SpaceOptions{})
	for _, name := range []string{ml.NameGBoost, ml.NameQuadraticLasso} {
		var p ml.Predictor
		for _, n := range []int{20, 77, 200} {
			var fits []float64
			for rep := 0; rep < 3; rep++ {
				if p, err = ml.New(name); err != nil {
					return err
				}
				start := time.Now()
				if err := p.Fit(Xp[:n], yp[:n]); err != nil {
					return err
				}
				fits = append(fits, ms(time.Since(start)))
			}
			L.put(fmt.Sprintf("ml.fit_ms.%s.n%d", name, n), median(fits), "ms")
		}
		start := time.Now()
		for i := 0; i < space.Len(); i++ {
			p.Predict(space.At(i).Vector())
		}
		L.put("ml.predict_us."+name, us(time.Since(start))/float64(space.Len()), "us")
	}
	return nil
}

// serveUnitJobs is how many jobs each client runs in one serve unit.
const serveUnitJobs = 6

// runServeUnit starts a daemon, runs a fixed job list through both clients
// and stops the daemon. It returns the time the jobs took.
func runServeUnit(ctx context.Context, e env, in *inputs, spans *spanLog) ([]completedJob, time.Duration, tally, error) {
	in.units++
	d, err := startDaemon(e.binDir, filepath.Join(e.workDir, fmt.Sprintf("unit-state-%d", in.units)), e.workers)
	if err != nil {
		return nil, 0, tally{}, err
	}
	defer d.stop()
	done, t, wall := driveClients(ctx, d.url, spans, func(c, k int) *serveJob {
		if k >= serveUnitJobs {
			return nil
		}
		return &in.serveJobs[serveJobFor(c, k)]
	})
	return done, wall, t, nil
}

// ledgerServe measures the daemon's job phases, the direct executor,
// machine checkpoints and the wire codec.
func ledgerServe(ctx context.Context, L ledger, t *tally, e env, in *inputs, spans *spanLog) error {
	jobs := in.serveJobs
	done, _, ut, err := runServeUnit(ctx, e, in, spans)
	if err != nil {
		return err
	}
	t.add(ut)
	var submit, wait, run, fetch []float64
	var runTotal, execTotal time.Duration
	for _, j := range done {
		jt := j.times
		submit = append(submit, ms(jt.submitted.Sub(jt.start)))
		wait = append(wait, ms(jt.running.Sub(jt.submitted)))
		run = append(run, ms(jt.finished.Sub(jt.running)))
		fetch = append(fetch, ms(jt.fetched.Sub(jt.finished)))
		runTotal += jt.finished.Sub(jt.running)
		execTotal += j.job.execute
	}
	var execs []float64
	for _, j := range jobs {
		execs = append(execs, ms(j.execute))
	}
	L.put("server.submit_ms", median(submit), "ms")
	L.put("server.queue_wait_ms", median(wait), "ms")
	L.put("server.run_ms", median(run), "ms")
	L.put("server.fetch_ms", median(fetch), "ms")
	L.put("server.execute_ms", median(execs), "ms")
	L.put("server.overhead_ratio", ratio(runTotal.Seconds(), execTotal.Seconds()), "ratio")

	// Machine checkpoints of the evaluate jobs after one chunk.
	var save, load, size []float64
	for i, j := range jobs {
		if j.spec.Kind != api.KindEvaluate {
			continue
		}
		m, err := serveEvalMachine(j.spec)
		if err != nil {
			return err
		}
		m.StepInstructions(1_000_000)
		path := filepath.Join(e.workDir, fmt.Sprintf("ckpt-%d", i))
		start := time.Now()
		if err := sim.SaveCheckpoint(path, m); err != nil {
			return err
		}
		save = append(save, ms(time.Since(start)))
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		size = append(size, float64(st.Size()))
		start = time.Now()
		if _, err := sim.LoadCheckpoint(path); err != nil {
			return err
		}
		load = append(load, ms(time.Since(start)))
	}
	L.put("sim.checkpoint_ms", median(save), "ms")
	L.put("sim.restore_ms", median(load), "ms")
	L.put("sim.checkpoint_bytes", median(size), "bytes")

	// The wire codec on the sweep artifacts.
	var enc, dec []float64
	for _, j := range jobs {
		if j.spec.Kind != api.KindSweep {
			continue
		}
		for rep := 0; rep < 10; rep++ {
			start := time.Now()
			res, err := api.DecodeSweepResult(j.artifact)
			if err != nil {
				return err
			}
			dec = append(dec, us(time.Since(start)))
			start = time.Now()
			api.Encode(res)
			enc = append(enc, us(time.Since(start)))
		}
	}
	L.put("api.decode_us", median(dec), "us")
	L.put("api.encode_us", median(enc), "us")
	return nil
}
