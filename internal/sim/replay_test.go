package sim

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"mct/internal/config"
)

// streamWindow is the streaming reference for one evaluation: clone the
// warm machine, reconfigure, and generate the whole window from the
// clone's own generator — no shared prefix, no kept tail generator.
func streamWindow(t *testing.T, warm *Machine, cfg config.Config, n int) Metrics {
	t.Helper()
	m := warm.Clone()
	if err := m.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	m.beginWindow()
	m.runOwn(n)
	m.finishRun()
	return m.windowMetrics()
}

// TestReplayMatchesStream: replaying the shared window equals streaming it,
// at the lengths where the prefix/tail split can go wrong — one short of the
// cap (prefix only), exactly the cap, one past it (a one-access tail) and a
// tail spanning several batches that ends mid-batch. The configurations
// exercise eager writebacks, write cancellation and the wear quota; the
// machines are NVM-only and DRAM-tiered, each both as prepared and as
// rebuilt from a checkpoint.
func TestReplayMatchesStream(t *testing.T) {
	aggressive := config.StaticBaseline()
	aggressive.EagerThreshold = 4
	aggressive.FastCancellation = true
	aggressive.SlowLatency = 4
	aggressive.WearQuotaTarget = 20
	cfgs := []config.Config{config.StaticBaseline(), aggressive}
	lengths := []int{windowCap - 1, windowCap, windowCap + 1, 3*windowCap + 17}

	for _, bench := range []string{"gups", "lbm", "zeusmp"} {
		for _, opt := range []Options{quickOptions(), tieredOptions()} {
			p, err := Prepare(bench, 0, 1, opt)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "warm.ckpt")
			if err := SaveCheckpoint(path, p.warm); err != nil {
				t.Fatal(err)
			}
			restored, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			sources := []struct {
				name string
				warm *Machine
			}{{"prepared", p.warm}, {"checkpoint", restored}}
			for _, n := range lengths {
				replays := make([]*Prepared, len(sources))
				for k, src := range sources {
					replays[k] = &Prepared{Spec: p.Spec, opt: p.opt, nMeasure: n, warm: src.warm.Clone()}
				}
				for i, cfg := range cfgs {
					want := streamWindow(t, p.warm, cfg, n)
					for k, rp := range replays {
						got, err := rp.Evaluate(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s/dram=%v/%s/n=%d cfg %d: replayed window diverged from the stream\nreplay: %+v\nstream: %+v",
								bench, opt.Tiers.DRAMCache, sources[k].name, n, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestPreparedWindowCapped: the shared prefix holds min(measure, windowCap)
// accesses and a tail generator exists exactly when the window is longer,
// so a first evaluation allocates the same at 1M and 4M accesses.
func TestPreparedWindowCapped(t *testing.T) {
	for _, n := range []int{1000, windowCap, windowCap + 1, 1_000_000} {
		p, err := Prepare("lbm", 2000, n, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if p.prefix != nil {
			t.Fatalf("n=%d: Prepare materialized the window; it must wait for the first Evaluate", n)
		}
		if _, err := p.Evaluate(config.Default()); err != nil {
			t.Fatal(err)
		}
		if want := min(n, windowCap); len(p.prefix) != want {
			t.Errorf("n=%d: prefix holds %d accesses, want %d", n, len(p.prefix), want)
		}
		if (p.tail != nil) != (n > windowCap) {
			t.Errorf("n=%d: tail generator present=%v, want %v", n, p.tail != nil, n > windowCap)
		}
	}

	const maxGrowth = 64 << 10
	alloc := func(measure int) uint64 {
		p, err := Prepare("lbm", 0, measure, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := p.Evaluate(config.Default()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := alloc(1_000_000), alloc(4_000_000)
	t.Logf("first evaluation: %d B at 1M accesses, %d B at 4M", short, long)
	if long > short+maxGrowth {
		t.Errorf("first evaluation allocated %d B at 4M accesses vs %d B at 1M; growth over %d B means the window is not capped",
			long, short, maxGrowth)
	}
}
