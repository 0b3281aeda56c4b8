// Package engine is the parallel evaluation engine behind the experiment
// pipeline. The paper's evaluation burned 300,000 CPU-hours on brute-force
// sweeps; our substitute sweeps are embarrassingly parallel (every
// sim.Prepared evaluation clones a warmed LLC and replays an immutable
// trace), so the engine turns those serial loops into bounded worker pools
// without giving up the tree-wide determinism guarantee: results are
// returned in input order and depend only on their inputs, never on
// scheduling.
//
// The engine's contract:
//
//   - Bounded parallelism: at most Options.Workers tasks run at once
//     (default runtime.GOMAXPROCS(0)).
//   - Deterministic results: Map returns results indexed exactly like its
//     inputs, so downstream reductions see the same order at any worker
//     count.
//   - First-error cancellation: one failing task cancels the shared
//     context; the error reported is the failing task with the lowest
//     index among those that ran.
//   - Context cancellation: cancelling ctx stops the pool promptly (no new
//     tasks start; Map returns ctx.Err()).
//   - Structured progress: completion counts stream through an optional
//     callback, serialized and monotone, feeding obs.TraceSink sinks.
//   - Deterministic metrics: with Options.Obs set, the engine's counters
//     (map calls, tasks completed) land in the stable dump — they depend
//     only on the work, not the schedule — while wall-clock signals (task
//     duration buckets, worker count, queue wait) register as volatile and
//     never reach it.
package engine

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"mct/internal/obs"
)

// taskSecondsBounds bucket per-task wall durations (volatile instrument).
var taskSecondsBounds = []float64{0.001, 0.01, 0.1, 1, 10, 100}

// engineObs is the engine's metric family on one registry.
type engineObs struct {
	mapCalls  *obs.Counter
	tasks     *obs.Counter
	workers   *obs.Gauge
	taskSecs  *obs.Histogram
	queueSecs *obs.Histogram
}

// newEngineObs registers the engine family on r. The deterministic half
// (counters) lands in the stable dump; the timing half is volatile.
func newEngineObs(r *obs.Registry) *engineObs {
	return &engineObs{
		mapCalls:  r.Counter("engine.map_calls"),
		tasks:     r.Counter("engine.tasks_completed"),
		workers:   r.VolatileGauge("engine.workers"),
		taskSecs:  r.VolatileHistogram("engine.task_seconds", taskSecondsBounds),
		queueSecs: r.VolatileHistogram("engine.queue_wait_seconds", taskSecondsBounds),
	}
}

// Options configures one Map call.
type Options struct {
	// Workers bounds concurrent task executions; 0 (or negative) means
	// runtime.GOMAXPROCS(0). With one worker, tasks run in input order.
	Workers int

	// OnDone, when non-nil, observes completion counts after each
	// successful task. Calls are serialized and strictly monotone
	// (done = 1, 2, …, total regardless of completion order), so adapters
	// can thin progress to every Nth completion without missing counts.
	OnDone func(done, total int)

	// Obs, when non-nil, receives the engine metric family: deterministic
	// work counters plus volatile utilization/timing instruments.
	Obs *obs.Registry
}

// workers resolves the effective pool size.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Map evaluates fn(ctx, i) for every i in [0, n) on a bounded worker pool
// and returns the n results in input order. The first task error cancels
// the pool's context and is returned (when several tasks fail, the one
// with the lowest index among those that ran wins, keeping error reporting
// deterministic); cancelling ctx makes Map return ctx.Err() promptly. fn
// must be safe for concurrent invocation when Workers > 1.
func Map[T any](ctx context.Context, n int, opt Options, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	w := opt.workers()
	if w > n {
		w = n
	}
	var eo *engineObs
	if opt.Obs != nil {
		eo = newEngineObs(opt.Obs)
		eo.mapCalls.Inc()
		eo.workers.Set(float64(w))
	}
	out := make([]T, n)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		next     int
		done     int
		errIdx   = -1
		firstErr error
	)
	// The clock is read only for the volatile timing instruments: a run
	// without a registry never touches it.
	var poolStart time.Time
	if eo != nil {
		poolStart = time.Now()
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		worker := k
		go func() {
			defer wg.Done()
			// pprof labels let CPU profiles of a sweep attribute samples
			// to engine workers (go tool pprof -tagfocus engine_worker).
			pprof.Do(ctx, pprof.Labels("engine_worker", strconv.Itoa(worker)), func(ctx context.Context) {
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= n || ctx.Err() != nil {
						return
					}
					var start time.Time
					if eo != nil {
						start = time.Now()
						if i >= w {
							// Tasks beyond the first wave waited for a
							// free worker; their start delay since pool
							// launch is the queue-wait signal.
							eo.queueSecs.Observe(start.Sub(poolStart).Seconds())
						}
					}
					v, err := fn(ctx, i)
					if err != nil {
						// Cancel before queueing for mu, so the other
						// workers, which take mu twice per task, stop
						// claiming while this one waits for the lock.
						cancel()
						mu.Lock()
						if errIdx < 0 || i < errIdx {
							errIdx, firstErr = i, err
						}
						mu.Unlock()
						return
					}
					mu.Lock()
					out[i] = v
					done++
					if eo != nil {
						eo.tasks.Inc()
						eo.taskSecs.Observe(time.Since(start).Seconds())
					}
					if opt.OnDone != nil {
						// Under the lock: OnDone observes a strictly
						// monotone completion count.
						opt.OnDone(done, n)
					}
					mu.Unlock()
				}
			})
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		// No task failed, so the cancellation came from the parent.
		return nil, err
	}
	return out, nil
}
