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
	"context"
	"encoding/json"
	"errors"
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
// for one job: a machine checkpoint (machine.ckpt) and, for sweeps, the
// completed prefix of results (partial.json). Nil Checkpoints in
// ExecOptions disables persistence entirely — the CLI's synchronous mode.
type Checkpoints struct {
	Dir string
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
	// ChunkInsts / SweepChunk override the persistence granularity
	// (0 = the package defaults).
	ChunkInsts uint64
	SweepChunk int

	// onChunk, when non-nil, runs after each persisted chunk — a test seam
	// for interrupting a job at a deterministic point.
	onChunk func(done, total int)
}

func (o ExecOptions) chunkInsts() uint64 {
	if o.ChunkInsts > 0 {
		return o.ChunkInsts
	}
	return DefaultChunkInsts
}

func (o ExecOptions) sweepChunk() int {
	if o.SweepChunk > 0 {
		return o.SweepChunk
	}
	return DefaultSweepChunk
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
	chunk := opt.chunkInsts()
	for {
		done := m.WindowInstructions()
		if done >= total {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := total - done
		if n > chunk {
			n = chunk
		}
		m.StepInstructions(n)
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

// sweepPartial is the persisted completed prefix of a sweep job. Metrics
// are stored in wire form, which round-trips exactly (shortest-round-trip
// float encoding), so a resumed sweep's artifact is byte-identical to an
// uninterrupted one.
type sweepPartial struct {
	V       int           `json:"v"`
	Metrics []api.Metrics `json:"metrics"`
}

// execSweep evaluates every stride-th configuration of the enumerated space
// on one prepared benchmark. The warm machine is checkpointed once after
// Prepare, and the completed result prefix is persisted after every chunk;
// a resume restores both and recomputes only the tail. Chunks fan out on
// the engine worker pool and results keep enumeration order at any worker
// count.
func execSweep(ctx context.Context, spec api.JobSpec, opt ExecOptions) ([]byte, error) {
	stride := spec.Stride
	if stride < 1 {
		stride = 1
	}
	space := config.NewSpace(config.SpaceOptions{})
	var indices []int
	for i := 0; i < space.Len(); i += stride {
		indices = append(indices, i)
	}

	var done []api.Metrics
	var prep *sim.Prepared
	if ck := opt.Checkpoints; ck != nil {
		if _, serr := os.Stat(ck.machinePath()); serr == nil {
			m, err := sim.LoadCheckpoint(ck.machinePath())
			if err != nil {
				return nil, fmt.Errorf("server: resume sweep: %w", err)
			}
			prep, err = sim.PreparedFromMachine(m, 0, spec.Accesses)
			if err != nil {
				return nil, err
			}
			if data, rerr := os.ReadFile(ck.partialPath()); rerr == nil {
				var p sweepPartial
				if err := decodePartial(data, &p); err != nil {
					return nil, fmt.Errorf("server: resume sweep: %w", err)
				}
				if len(p.Metrics) > len(indices) {
					return nil, fmt.Errorf("server: resume sweep: partial has %d results for %d indices", len(p.Metrics), len(indices))
				}
				done = p.Metrics
			}
		}
	}
	if prep == nil {
		var err error
		prep, err = sim.Prepare(spec.Benchmark, 0, spec.Accesses, simOptions(spec))
		if err != nil {
			return nil, err
		}
		if ck := opt.Checkpoints; ck != nil {
			if err := prep.Checkpoint(ck.machinePath()); err != nil {
				return nil, err
			}
		}
	}

	chunk := opt.sweepChunk()
	for start := len(done); start < len(indices); start += chunk {
		end := start + chunk
		if end > len(indices) {
			end = len(indices)
		}
		cfgs := make([]config.Config, end-start)
		for i := range cfgs {
			cfgs[i] = space.At(indices[start+i])
		}
		ms, err := prep.EvaluateAll(ctx, cfgs, engine.Options{Workers: opt.Workers, Obs: opt.Obs})
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			done = append(done, api.FromMetrics(m))
		}
		if ck := opt.Checkpoints; ck != nil {
			if err := atomicfile.Write(ck.partialPath(), api.Encode(sweepPartial{V: api.Version, Metrics: done})); err != nil {
				return nil, err
			}
		}
		opt.emit(obs.Event{Scope: "job", Item: spec.Benchmark, Done: len(done), Total: len(indices)})
		opt.chunkDone(len(done), len(indices))
	}

	res := api.SweepResult{
		V:         api.Version,
		Benchmark: spec.Benchmark,
		Accesses:  spec.Accesses,
		Stride:    stride,
		SpaceSize: space.Len(),
		Indices:   indices,
		Metrics:   done,
	}
	return api.Encode(res), nil
}

// execExperiment regenerates one paper table/figure. Resume granularity is
// the sweep disk cache (MCT_SWEEP_CACHE): completed sweeps reload from disk
// on a rerun, so only unfinished sweep work repeats. The daemon points the
// cache at its state directory for exactly this reason, which also carries
// sweeps from one job to the next: the in-process sweep cache is dropped
// when the job returns, so a long-lived daemon does not hold every sweep
// its jobs ever touched.
func execExperiment(ctx context.Context, spec api.JobSpec, opt ExecOptions) ([]byte, error) {
	defer experiments.ResetSweepCache()
	eopt := experiments.DefaultOptions()
	rp := experiments.DefaultRunParams()
	if spec.Quick {
		eopt, rp = experiments.QuickOptions(), experiments.QuickRunParams()
	}
	eopt.Sim = simOptions(spec)
	eopt.Workers = opt.Workers
	eopt.Events = opt.Events
	eopt.Obs = opt.Obs
	rep, err := experiments.Run(ctx, spec.Experiment, eopt, rp)
	if err != nil {
		return nil, err
	}
	return api.Encode(api.FromReport(rep)), nil
}

// decodePartial decodes a persisted sweep prefix strictly enough to catch a
// truncated or foreign file, without rejecting same-version field growth
// the way the api decoders do (the partial is private to one job dir).
func decodePartial(data []byte, p *sweepPartial) error {
	if err := json.Unmarshal(data, p); err != nil {
		return err
	}
	if p.V != api.Version {
		return errors.New("partial result has a different schema version")
	}
	return nil
}
