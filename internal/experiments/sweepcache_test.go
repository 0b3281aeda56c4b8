package experiments

import (
	"bytes"
	"context"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mct/internal/obs"
)

// sweepsComputed reads reg's count of sweeps computed rather than loaded
// or shared.
func sweepsComputed(reg *obs.Registry) uint64 {
	return reg.Counter("experiments.sweeps_computed").Value()
}

// cheapOptions is tinyOptions with a six-configuration space, counting
// computed sweeps in a registry of its own.
func cheapOptions() Options {
	o := tinyOptions()
	o.Stride = 400
	o.Obs = obs.NewRegistry()
	return o
}

// TestSweepCachesNeverShare: two caches keep separate entries for one key.
// Each computes the sweep once and then returns it again, and neither
// returns the other's *Sweep.
func TestSweepCachesNeverShare(t *testing.T) {
	opt := cheapOptions()
	var got [2]*Sweep
	for i := range got {
		opt.Sweeps = NewSweepCache("")
		for call := 0; call < 2; call++ {
			s, err := RunSweep(context.Background(), "lbm", false, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] == nil {
				got[i] = s
			} else if s != got[i] {
				t.Errorf("cache %d returned two sweeps for one key", i)
			}
		}
	}
	if got[0] == got[1] {
		t.Error("two caches shared one *Sweep")
	}
	if n := sweepsComputed(opt.Obs); n != 2 {
		t.Errorf("two caches computed %d sweeps, want 2", n)
	}
}

// TestNilSweepCacheRecomputes: with nil Sweeps, RunSweep computes on every
// call, and the computations agree.
func TestNilSweepCacheRecomputes(t *testing.T) {
	opt := cheapOptions()
	opt.Sweeps = nil
	var got [2]*Sweep
	for i := range got {
		s, err := RunSweep(context.Background(), "lbm", false, opt)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = s
	}
	if n := sweepsComputed(opt.Obs); n != 2 {
		t.Errorf("two calls without a cache computed %d sweeps, want 2", n)
	}
	if got[0] == got[1] || !reflect.DeepEqual(got[0], got[1]) {
		t.Error("want two equal sweeps from two separate computations")
	}
}

// TestRunSharesSweepCacheWithinCall: Run gives a nil Sweeps one cache for
// the call, so a key the experiment needs twice (a benchmark listed twice)
// is computed once, and the next Run computes it afresh.
func TestRunSharesSweepCacheWithinCall(t *testing.T) {
	opt := cheapOptions()
	opt.Sweeps = nil
	opt.Benchmarks = []string{"lbm", "lbm"}
	for call := uint64(1); call <= 2; call++ {
		if _, err := Run(context.Background(), "fig1", opt); err != nil {
			t.Fatal(err)
		}
		if n := sweepsComputed(opt.Obs); n != call {
			t.Fatalf("after %d Run calls: %d sweeps computed, want %d", call, n, call)
		}
	}
}

// TestSweepCacheRejectsShiftedIndices: a disk entry is used only if its
// Indices are exactly the key's strided positions. An entry of the right
// length whose indices are shifted by one is a miss: the sweep is
// recomputed, and the file is overwritten with the correct entry.
func TestSweepCacheRejectsShiftedIndices(t *testing.T) {
	dir := t.TempDir()
	opt := cheapOptions()
	opt.Sweeps = NewSweepCache(dir)
	want, err := RunSweep(context.Background(), "lbm", false, opt)
	if err != nil {
		t.Fatal(err)
	}

	key := sweepKeyFor("lbm", false, opt)
	shifted := make([]int, len(want.Indices))
	for i, idx := range want.Indices {
		shifted[i] = idx + 1
	}
	var buf bytes.Buffer
	d := diskSweep{SpaceLen: want.Space.Len(), Indices: shifted, Metrics: want.Metrics, Baseline: want.Baseline, Default: want.Default}
	if err := gob.NewEncoder(&buf).Encode(&d); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key.filename()), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	opt.Sweeps = NewSweepCache(dir)
	got, err := RunSweep(context.Background(), "lbm", false, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := sweepsComputed(opt.Obs); n != 2 {
		t.Fatalf("%d sweeps computed, want 2: the shifted entry must be a miss", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the recomputed sweep differs from the first computation")
	}
	if s := NewSweepCache(dir).load(key, want.Space); s == nil || !reflect.DeepEqual(s, want) {
		t.Error("the recomputation did not overwrite the shifted entry with the correct one")
	}
}

// TestSweepCacheStoreIsByteStable: repeated stores of one sweep write the
// same bytes. Most windows' WritesByRatio maps hold two ratios, and gob
// would write a map in its randomized iteration order, so five stores
// would all agree only by chance.
func TestSweepCacheStoreIsByteStable(t *testing.T) {
	opt := cheapOptions()
	s, err := RunSweep(context.Background(), "lbm", true, opt)
	if err != nil {
		t.Fatal(err)
	}
	ratios := 0
	for _, m := range s.Metrics {
		ratios = max(ratios, len(m.WritesByRatio))
	}
	if ratios < 2 {
		t.Fatalf("no window wrote at more than %d ratio; the map order is not exercised", ratios)
	}
	key := sweepKeyFor("lbm", true, opt)
	var files [5][]byte
	for i := range files {
		c := NewSweepCache(t.TempDir())
		c.store(key, s)
		if files[i], err = os.ReadFile(filepath.Join(c.dir, key.filename())); err != nil {
			t.Fatal(err)
		}
		if got := c.load(key, s.Space); !reflect.DeepEqual(got, s) {
			t.Fatal("the stored sweep does not load back as computed")
		}
	}
	for i := range files {
		if !bytes.Equal(files[i], files[0]) {
			t.Fatalf("store %d of one sweep wrote different bytes from the first", i)
		}
	}
}
