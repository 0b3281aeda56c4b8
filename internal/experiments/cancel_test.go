package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"mct/internal/obs"
)

// progressExperiments are the registry experiments that send a progress
// event at quick scale.
var progressExperiments = []string{
	"ablation-norm", "extension-retention", "fig1", "fig10", "fig2", "fig3",
	"fig4b", "fig7", "fig8", "fig9", "hybrid-tier", "validate-wearlevel",
	"wq-learning",
}

// TestRunCancelsFromFirstEvent: every experiment that reports progress,
// cancelled from its first event, returns context.Canceled, and no engine
// task starts after the cancel: at w workers, at most the w-1 tasks then
// running on other workers complete. A driver whose work ignores the
// caller's context (or runs under context.Background) finishes that work
// after the cancel, which shows as completed tasks.
func TestRunCancelsFromFirstEvent(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, id := range progressExperiments {
			t.Run(fmt.Sprintf("%s/workers=%d", id, workers), func(t *testing.T) {
				reg := obs.NewRegistry()
				tasks := reg.Counter("engine.tasks_completed")
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var once sync.Once
				var atCancel uint64
				opt := QuickOptions()
				opt.Benchmarks = []string{"lbm", "stream"}
				opt.Workers = workers
				opt.Obs = reg
				opt.Events = func(obs.Event) {
					once.Do(func() {
						atCancel = tasks.Value()
						cancel()
					})
				}
				if _, err := Run(ctx, id, opt); !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if after := tasks.Value() - atCancel; after > uint64(workers-1) {
					t.Errorf("%d engine tasks completed after the cancel, want at most %d", after, workers-1)
				}
			})
		}
	}
}

// settledGoroutines returns the goroutine count once two reads a GC apart
// agree. Goroutines of earlier tests may still be exiting; a baseline read
// among them is too high and hides a leak of the same size.
func settledGoroutines() int {
	n := -1
	for i := 0; i < 200; i++ {
		runtime.GC()
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// TestFig1LeavesNoGoroutines: once a quick fig1 returns, every goroutine it
// started, its sweep's engine workers included, has exited.
func TestFig1LeavesNoGoroutines(t *testing.T) {
	baseline := settledGoroutines()
	opt := QuickOptions()
	opt.Benchmarks = []string{"lbm"}
	opt.Workers = 2
	if _, err := Run(context.Background(), "fig1", opt); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline: %d > %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
