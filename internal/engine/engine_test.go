package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mct/internal/obs"
)

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		out, err := Map(context.Background(), 50, Options{Workers: workers},
			func(ctx context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 50 {
			t.Fatalf("workers=%d: got %d results, want 50", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), 64, Options{Workers: workers},
		func(ctx context.Context, i int) (struct{}, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			cur.Add(-1)
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent tasks, want at most %d", p, workers)
	}
}

// TestMapFirstErrorCancels: with four workers, tasks 0–2 block until the
// pool's context is cancelled, so task 3 — the fourth worker's first task —
// fails while the other three workers are still busy. Working cancellation
// stops every worker before it claims index 4, so no task after the failing
// one runs. Broken cancellation fails in one of three ways: without the
// cancel on the error path, tasks 0–2 never return and the time guard
// fails the test; without the claim-side context check, the released
// workers claim and run all 100 tasks; and a worker that keeps claiming
// after its task failed, with no cancel, runs task 4, which releases the
// blocked tasks, so again all 100 run.
func TestMapFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	released := make(chan struct{})
	var release sync.Once
	type result struct{ err error }
	res := make(chan result, 1)
	go func() {
		_, err := Map(context.Background(), 100, Options{Workers: 4},
			func(ctx context.Context, i int) (int, error) {
				calls.Add(1)
				if i == 3 {
					return 0, fmt.Errorf("task %d: %w", i, boom)
				}
				if i > 3 {
					// A task after the failing one ran: cancellation
					// missed, so unblock tasks 0–2 as well.
					release.Do(func() { close(released) })
				}
				select {
				case <-ctx.Done():
				case <-released:
				}
				return i, nil
			})
		res <- result{err}
	}()
	select {
	case r := <-res:
		if !errors.Is(r.err, boom) {
			t.Fatalf("err = %v, want %v", r.err, boom)
		}
	case <-time.After(10 * time.Second):
		release.Do(func() { close(released) })
		t.Fatal("Map hung after a task error: the pool's context was never cancelled")
	}
	if n := calls.Load(); n >= 100 {
		t.Errorf("all %d tasks ran despite an early error; cancellation did not propagate", n)
	}
}

func TestMapSerialErrorShortCircuits(t *testing.T) {
	boom := errors.New("boom")
	var calls int
	_, err := Map(context.Background(), 10, Options{Workers: 1},
		func(ctx context.Context, i int) (int, error) {
			calls++
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if calls != 4 {
		t.Errorf("serial path ran %d tasks after the error at index 3, want exactly 4", calls)
	}
}

func TestMapLowestErrorIndexWins(t *testing.T) {
	// Every task fails; regardless of scheduling, the reported error must be
	// from the lowest index that actually ran — and index 0 always runs.
	for trial := 0; trial < 20; trial++ {
		_, err := Map(context.Background(), 8, Options{Workers: 8},
			func(ctx context.Context, i int) (int, error) {
				return 0, fmt.Errorf("task %d failed", i)
			})
		if err == nil {
			t.Fatal("want error")
		}
		if got := err.Error(); got != "task 0 failed" {
			t.Fatalf("trial %d: err = %q, want the lowest-index error %q", trial, got, "task 0 failed")
		}
	}
}

func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	errCh := make(chan error, 1)
	go func() {
		_, err := Map(ctx, 10, Options{Workers: 2},
			func(ctx context.Context, i int) (int, error) {
				once.Do(func() { close(started) })
				<-ctx.Done()
				return 0, ctx.Err()
			})
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapCancellationLeaksNoGoroutines(t *testing.T) {
	// Workers must exit once the context dies, even when every task blocks
	// until cancellation: Map's pool is WaitGroup-joined, so a worker that
	// outlived Map would be a leak visible in the process goroutine count.
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 16)
	errCh := make(chan error, 1)
	go func() {
		_, err := Map(ctx, 16, Options{Workers: 4},
			func(ctx context.Context, i int) (int, error) {
				started <- struct{}{}
				<-ctx.Done()
				return 0, ctx.Err()
			})
		errCh <- err
	}()
	for i := 0; i < 4; i++ {
		<-started // all four workers are blocked in a task
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Goroutine teardown is asynchronous after wg.Wait returns the workers
	// themselves, but the runtime may lag reclaiming them; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline: %d > %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMapPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	_, err := Map(ctx, 10, Options{Workers: 4},
		func(ctx context.Context, i int) (int, error) {
			calls.Add(1)
			return i, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Errorf("%d tasks ran on a pre-cancelled context, want 0", calls.Load())
	}
}

func TestMapOnDoneMonotone(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var seen []int
		_, err := Map(context.Background(), 25, Options{
			Workers: workers,
			OnDone: func(done, total int) {
				if total != 25 {
					t.Errorf("workers=%d: total = %d, want 25", workers, total)
				}
				mu.Lock()
				seen = append(seen, done)
				mu.Unlock()
			},
		}, func(ctx context.Context, i int) (int, error) { return i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != 25 {
			t.Fatalf("workers=%d: OnDone called %d times, want 25", workers, len(seen))
		}
		for i, d := range seen {
			if d != i+1 {
				t.Fatalf("workers=%d: OnDone sequence %v not monotone at position %d", workers, seen, i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 0, Options{},
		func(ctx context.Context, i int) (int, error) { return i, nil })
	if err != nil || out != nil {
		t.Fatalf("Map(n=0) = (%v, %v), want (nil, nil)", out, err)
	}
}

// TestMapObsCounters: with a registry attached, Map publishes the
// deterministic engine counters — identical at any worker count — while the
// wall-clock instruments stay out of the stable dump.
func TestMapObsCounters(t *testing.T) {
	dumpAt := func(workers int) []byte {
		reg := obs.NewRegistry()
		_, err := Map(context.Background(), 12, Options{Workers: workers, Obs: reg},
			func(ctx context.Context, i int) (int, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("engine.map_calls").Value(); got != 1 {
			t.Fatalf("map_calls = %d, want 1", got)
		}
		if got := reg.Counter("engine.tasks_completed").Value(); got != 12 {
			t.Fatalf("tasks_completed = %d, want 12", got)
		}
		return reg.DumpJSON()
	}
	d1 := dumpAt(1)
	d4 := dumpAt(4)
	if !bytes.Equal(d1, d4) {
		t.Errorf("engine dump differs across worker counts:\n%s\nvs\n%s", d1, d4)
	}
	if bytes.Contains(d1, []byte("engine.workers")) || bytes.Contains(d1, []byte("task_seconds")) {
		t.Errorf("volatile engine instrument leaked into the stable dump:\n%s", d1)
	}
}

// TestMapObsWithOnDone runs the pool with both optional observers on, so
// every worker's post-task critical section bumps the counters, observes
// the timing histograms and calls OnDone. Run under -race (CI's parallel
// determinism step does) it checks that the observer path adds no
// unsynchronized shared write: seen is appended without a lock of its own,
// so an OnDone call moved outside Map's lock is a reported race and a lost
// append. 40 tasks over 4 workers put 36 of them past the first wave, so
// the queue-wait histogram is exercised too.
func TestMapObsWithOnDone(t *testing.T) {
	const n, workers = 40, 4
	reg := obs.NewRegistry()
	var seen []int // no lock of its own: OnDone calls must be serialized
	_, err := Map(context.Background(), n, Options{
		Workers: workers,
		Obs:     reg,
		OnDone: func(done, total int) {
			// Read, pause, write: two overlapping calls would lose an
			// append, so the length check below fails even without -race.
			prev := seen
			time.Sleep(20 * time.Microsecond)
			seen = append(prev, done)
		},
	}, func(ctx context.Context, i int) (int, error) {
		// A short sleep keeps workers overlapping, so one worker's
		// observer calls run while another is mid-task.
		time.Sleep(200 * time.Microsecond)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("OnDone sequence %v not monotone at position %d", seen, i)
		}
	}
	if len(seen) != n {
		t.Fatalf("OnDone called %d times, want %d", len(seen), n)
	}
	if got := reg.Counter("engine.tasks_completed").Value(); got != n {
		t.Errorf("tasks_completed = %d, want %d", got, n)
	}
	if got := reg.VolatileHistogram("engine.task_seconds", taskSecondsBounds).Count(); got != n {
		t.Errorf("task_seconds observed %d times, want %d", got, n)
	}
	if got := reg.VolatileHistogram("engine.queue_wait_seconds", taskSecondsBounds).Count(); got != n-workers {
		t.Errorf("queue_wait_seconds observed %d times, want %d", got, n-workers)
	}
}

// TestMapNoObsNoClock: without a registry the hot loop must not touch the
// clock or allocate observer state (guarded here only by it not panicking
// and by code review; the test pins the nil-Obs path's behaviour).
func TestMapNoObsNoClock(t *testing.T) {
	out, err := Map(context.Background(), 3, Options{Workers: 1},
		func(ctx context.Context, i int) (int, error) { return i * i, nil })
	if err != nil || len(out) != 3 || out[2] != 4 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}
