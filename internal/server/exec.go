// Package server is the serving layer behind cmd/mctd: a bounded,
// client-fair job queue over the api wire types, a single-runner scheduler
// that executes jobs on the engine worker pool, durable job state under a
// state directory, and the HTTP/SSE surface that exposes it all.
//
// The package splits along three seams:
//
//   - exec.go: Execute turns an api.JobSpec into its artifact bytes. It is
//     transport-free — the mct CLI's -job mode calls it directly — and
//     checkpoint-aware: given a Checkpoints dir it persists resumable
//     progress (machine checkpoints, partial sweep results) after every
//     chunk, and on a rerun resumes from whatever it finds there.
//   - queue.go / job.go / store.go: admission control, per-client fairness,
//     the job state machine with SSE fan-out, and the on-disk layout.
//   - server.go: the HTTP handlers and the runner loop.
//
// Determinism contract: for one spec, the artifact bytes are identical
// whether the job ran in the daemon or the CLI, at any worker count, and
// whether or not the run was interrupted and resumed — that is what lets CI
// cmp a daemon artifact against the CLI's output, and what makes a kill -9
// mid-job invisible in the result.
package server

import (
	"bytes"
	"context"
	"fmt"
	"os"

	"mct/api"
	"mct/internal/atomicfile"
	"mct/internal/config"
	"mct/internal/engine"
	"mct/internal/experiments"
	"mct/internal/obs"
	"mct/internal/sim"
	"mct/internal/trace"
)

// Execution tuning defaults: how much work runs between two persistence
// points. Chunk boundaries never change results (see sim.StepInstructions),
// only how much a crash can lose.
const (
	// DefaultChunkInsts is the instruction budget per evaluate-job chunk.
	DefaultChunkInsts = 1_000_000
	// DefaultSweepChunk is the number of configurations per sweep-job chunk.
	DefaultSweepChunk = 64
)

// Checkpoints names the directory where Execute persists resumable state
// for one job: for evaluate jobs a machine checkpoint (machine.ckpt), for
// sweeps the api.SweepResult artifact cut to its completed prefix
// (partial.json). SweepDir, when set, is the disk layer of an experiment
// job's sweep cache, which jobs may share.
// Nil Checkpoints in ExecOptions disables persistence entirely — the CLI's
// synchronous mode.
type Checkpoints struct {
	Dir      string
	SweepDir string
}

func (c *Checkpoints) machinePath() string { return c.Dir + "/machine.ckpt" }
func (c *Checkpoints) partialPath() string { return c.Dir + "/partial.json" }

// ExecOptions tunes one Execute call.
type ExecOptions struct {
	// Workers bounds intra-job parallelism (engine.Map fan-out); 0 means
	// GOMAXPROCS. Artifacts are identical at any value.
	Workers int
	// Events, when non-nil, receives progress observations (chunk
	// completions, sweep progress). The daemon fans these out over SSE.
	Events obs.TraceSink
	// Obs, when non-nil, receives the engine metric family from sweep
	// fan-out; the daemon passes its /metrics registry.
	Obs *obs.Registry
	// Checkpoints, when non-nil, enables resumable persistence (see
	// Checkpoints). Nil runs the job in memory only.
	Checkpoints *Checkpoints
	// onChunk, when non-nil, runs after each persisted chunk — a test seam
	// for interrupting a job at a deterministic point.
	onChunk func(done, total int)
}

func (o ExecOptions) emit(e obs.Event) {
	if o.Events != nil {
		o.Events(e)
	}
}

func (o ExecOptions) chunkDone(done, total int) {
	if o.onChunk != nil {
		o.onChunk(done, total)
	}
}

// Execute runs one job to completion and returns its artifact document:
// api.Metrics for evaluate, api.SweepResult for sweep, api.ExperimentReport
// for experiment. With opt.Checkpoints set it persists resumable state
// after every chunk and resumes from that state when rerun; a context
// cancellation returns ctx.Err() with the persisted state intact, so the
// next Execute continues where this one stopped.
func Execute(ctx context.Context, spec api.JobSpec, opt ExecOptions) ([]byte, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case api.KindEvaluate:
		return execEvaluate(ctx, spec, opt)
	case api.KindSweep:
		return execSweep(ctx, spec, opt)
	case api.KindExperiment:
		return execExperiment(ctx, spec, opt)
	}
	return nil, fmt.Errorf("server: unknown job kind %q", spec.Kind)
}

func simOptions(spec api.JobSpec) sim.Options {
	o := sim.DefaultOptions()
	o.Tiers = config.TierConfig{
		DRAMCache:            spec.DRAMCache,
		DRAMPromoteThreshold: spec.DRAMPromoteThreshold,
	}
	return o
}

// execEvaluate measures one configuration for spec.Insts instructions,
// checkpointing the whole machine between instruction chunks. Window-start
// markers ride the checkpoint, so the final WindowMetrics of a resumed run
// equals a straight RunInstructions — byte-identical artifact either way.
func execEvaluate(ctx context.Context, spec api.JobSpec, opt ExecOptions) ([]byte, error) {
	cfg, err := spec.Config.Config()
	if err != nil {
		return nil, err
	}
	var m *sim.Machine
	if ck := opt.Checkpoints; ck != nil {
		if _, serr := os.Stat(ck.machinePath()); serr == nil {
			m, err = sim.LoadCheckpoint(ck.machinePath())
			if err != nil {
				return nil, fmt.Errorf("server: resume evaluate: %w", err)
			}
		}
	}
	if m == nil {
		ts, err := trace.ByName(spec.Benchmark)
		if err != nil {
			return nil, err
		}
		m, err = sim.NewMachine(ts, cfg, simOptions(spec))
		if err != nil {
			return nil, err
		}
		warm := spec.WarmupAccesses
		if warm <= 0 {
			warm = sim.DefaultWarmupAccesses
		}
		m.Warmup(warm) // ends by opening the measurement window
	}
	total := spec.Insts
	for {
		done := m.WindowInstructions()
		if done >= total {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.StepInstructions(min(total-done, DefaultChunkInsts))
		if ck := opt.Checkpoints; ck != nil {
			if err := sim.SaveCheckpoint(ck.machinePath(), m); err != nil {
				return nil, err
			}
		}
		di, ti := int(m.WindowInstructions()), int(total) //mctlint:ignore cyclecast instruction budgets come from the wire spec, far below 2^62
		opt.emit(obs.Event{Scope: "job", Item: spec.Benchmark, Done: di, Total: ti})
		opt.chunkDone(di, ti)
	}
	return api.Encode(api.FromMetrics(m.WindowMetrics())), nil
}

// execSweep evaluates every stride-th configuration of the enumerated space
// on one prepared benchmark. After every chunk the job persists its own
// artifact cut to the completed prefix: an api.SweepResult whose Indices
// are the first len(Metrics) strided positions. A resume reads it back with
// api.DecodeSweepResult, checks it was written for this spec, prepares the
// benchmark again and computes only the tail. Metrics round-trip exactly in
// wire form (shortest-round-trip floats), so a resumed artifact is
// byte-identical to an uninterrupted one. Chunks fan out on the engine
// worker pool and results keep enumeration order at any worker count.
func execSweep(ctx context.Context, spec api.JobSpec, opt ExecOptions) ([]byte, error) {
	space := config.NewSpace(config.SpaceOptions{})
	res := api.SweepResult{
		V:         api.Version,
		Benchmark: spec.Benchmark,
		Accesses:  spec.Accesses,
		Stride:    max(spec.Stride, 1),
		SpaceSize: space.Len(),
	}
	indices := space.Strided(res.Stride)

	if ck := opt.Checkpoints; ck != nil {
		done, err := resumeSweep(ck.partialPath(), res, indices)
		if err != nil {
			return nil, fmt.Errorf("server: resume sweep from %s: %w", ck.partialPath(), err)
		}
		res.Metrics = done
	}
	prep, err := sim.Prepare(spec.Benchmark, 0, spec.Accesses, simOptions(spec))
	if err != nil {
		return nil, err
	}

	for start := len(res.Metrics); start < len(indices); start += DefaultSweepChunk {
		end := min(start+DefaultSweepChunk, len(indices))
		cfgs := make([]config.Config, end-start)
		for i := range cfgs {
			cfgs[i] = space.At(indices[start+i])
		}
		ms, err := prep.EvaluateAll(ctx, cfgs, engine.Options{Workers: opt.Workers, Obs: opt.Obs})
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			res.Metrics = append(res.Metrics, api.FromMetrics(m))
		}
		res.Indices = indices[:end]
		if ck := opt.Checkpoints; ck != nil {
			if err := atomicfile.Write(ck.partialPath(), api.Encode(res)); err != nil {
				return nil, err
			}
		}
		opt.emit(obs.Event{Scope: "job", Item: spec.Benchmark, Done: end, Total: len(indices)})
		opt.chunkDone(end, len(indices))
	}
	res.Indices = indices
	return api.Encode(res), nil
}

// resumeSweep reads the persisted prefix at path, if there is one, and
// returns its metrics. The prefix must be the result want, cut to its
// first len(Metrics) strided positions of indices: same benchmark, trace
// length, stride and space. Anything else is an error, never a resume into
// another sweep's bytes.
func resumeSweep(path string, want api.SweepResult, indices []int) ([]api.Metrics, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	got, err := api.DecodeSweepResult(data)
	if err != nil {
		return nil, err
	}
	want.Indices, want.Metrics = indices[:min(len(got.Indices), len(indices))], got.Metrics
	if !bytes.Equal(api.Encode(got), api.Encode(want)) {
		return nil, fmt.Errorf("%d results of sweep %s (%d accesses, stride %d, space %d) do not begin this sweep",
			len(got.Metrics), got.Benchmark, got.Accesses, got.Stride, got.SpaceSize)
	}
	return got.Metrics, nil
}

// execExperiment regenerates one paper table/figure. Resume granularity is
// the sweep cache's disk layer (Checkpoints.SweepDir): completed sweeps
// reload from disk on a rerun, so only unfinished sweep work repeats, and
// the daemon's jobs share completed sweeps through it. Each call owns its
// cache, so its in-memory sweeps go when the job returns and a long-lived
// daemon does not hold every sweep its jobs ever touched. Without
// Checkpoints, experiments.Run keeps the sweeps in memory for the call.
func execExperiment(ctx context.Context, spec api.JobSpec, opt ExecOptions) ([]byte, error) {
	eopt := experiments.DefaultOptions()
	if spec.Quick {
		eopt = experiments.QuickOptions()
	}
	eopt.Sim = simOptions(spec)
	eopt.Workers = opt.Workers
	eopt.Events = opt.Events
	eopt.Obs = opt.Obs
	if ck := opt.Checkpoints; ck != nil {
		eopt.Sweeps = experiments.NewSweepCache(ck.SweepDir)
	}
	rep, err := experiments.Run(ctx, spec.Experiment, eopt)
	if err != nil {
		return nil, err
	}
	return api.Encode(api.FromReport(rep)), nil
}
