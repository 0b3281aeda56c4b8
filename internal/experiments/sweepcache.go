package experiments

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"mct/internal/atomicfile"
	"mct/internal/config"
	"mct/internal/sim"
)

// SweepCache memoizes brute-force sweeps for the caller that owns it. In
// memory it is a single-flight map: the first RunSweep of a key computes
// the sweep, and concurrent callers of the same key block and then share
// the identical *Sweep. With a directory it also keeps a gob disk layer,
// so separate processes (mctbench invocations, daemon jobs) reuse each
// other's completed sweeps. An entry holds the sweep's sim.Metrics exactly
// as computed, so a disk hit returns the same sweep as the computation it
// replaces. A nil *SweepCache caches nothing.
type SweepCache struct {
	dir     string
	mu      sync.Mutex
	entries map[sweepKey]*sweepEntry
}

// NewSweepCache returns an empty cache over dir; dir == "" keeps it in
// memory only.
func NewSweepCache(dir string) *SweepCache {
	return &SweepCache{dir: dir, entries: map[sweepKey]*sweepEntry{}}
}

// sweepEntry is one single-flight slot of a SweepCache.
type sweepEntry struct {
	once sync.Once
	s    *Sweep
	err  error
}

// get returns the sweep for key, running compute at most once per entry.
// A failed entry is dropped (if it is still the cached one), so a later
// call retries instead of sharing the error.
func (c *SweepCache) get(key sweepKey, compute func() (*Sweep, error)) (*Sweep, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &sweepEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	e.once.Do(func() { e.s, e.err = compute() })
	if e.err != nil {
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	return e.s, e.err
}

// sweepKey identifies a cached sweep. Besides the sweep-shape parameters it
// carries a digest of the full sim.Options: two callers with different
// simulated systems (cache geometry, timing, energy model, …) must never
// share a cached sweep.
type sweepKey struct {
	bench    string
	accesses int
	stride   int
	wq       bool
	target   float64
	seed     int64
	sim      uint64
}

// simDigest hashes every sim.Options field into a cache-key component.
// Seed is normalized out because the key carries it separately (Options.Seed
// overwrites it before Prepare). The digest covers nested value structs
// (nvm.Params, energy.Model) via their printed representation.
func simDigest(o sim.Options) uint64 {
	o.Seed = 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", o)
	return h.Sum64()
}

// sweepKeyFor builds the cache key RunSweep uses.
func sweepKeyFor(benchmark string, includeWQ bool, opt Options) sweepKey {
	return sweepKey{
		bench:    benchmark,
		accesses: opt.Accesses,
		stride:   opt.Stride,
		wq:       includeWQ,
		target:   opt.LifetimeTarget,
		seed:     opt.Seed,
		sim:      simDigest(opt.Sim),
	}
}

// diskSweep is the on-disk form of a Sweep; the space is rebuilt from the
// key, and SpaceLen guards against caches from older space enumerations.
// sim.Metrics encodes its one map in key order (nvm.RatioCounts), so two
// stores of one sweep write the same bytes.
type diskSweep struct {
	SpaceLen int
	Indices  []int
	Metrics  []sim.Metrics
	Baseline sim.Metrics
	Default  sim.Metrics
}

func (k sweepKey) filename() string {
	// The o%016x component is the sim.Options digest: sweeps of different
	// simulated systems must land in different cache files. The .v3.gob
	// suffix keeps files of former formats (JSON, gob with WritesByRatio
	// as a map, then as a slice beside the metrics) from ever being read.
	return fmt.Sprintf("sweep_%s_a%d_s%d_wq%t_t%g_seed%d_o%016x.v3.gob",
		k.bench, k.accesses, k.stride, k.wq, k.target, k.seed, k.sim)
}

// load returns the disk entry for k over space, or nil. An entry is used
// only if it covers exactly the key's strided positions of space, so a
// stale or tampered file is a miss, never a wrong sweep.
func (c *SweepCache) load(k sweepKey, space *config.Space) *Sweep {
	if c == nil || c.dir == "" {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(c.dir, k.filename()))
	if err != nil {
		return nil
	}
	var d diskSweep
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&d); err != nil {
		return nil
	}
	if d.SpaceLen != space.Len() || !slices.Equal(d.Indices, space.Strided(k.stride)) || len(d.Metrics) != len(d.Indices) {
		return nil
	}
	return &Sweep{Benchmark: k.bench, Space: space, Indices: d.Indices, Metrics: d.Metrics, Baseline: d.Baseline, Default: d.Default}
}

// store persists a sweep to the disk layer; failures are silent (the cache
// is an optimization, never a correctness dependency).
func (c *SweepCache) store(k sweepKey, s *Sweep) {
	if c == nil || c.dir == "" {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	var buf bytes.Buffer
	d := diskSweep{SpaceLen: s.Space.Len(), Indices: s.Indices, Metrics: s.Metrics, Baseline: s.Baseline, Default: s.Default}
	if err := gob.NewEncoder(&buf).Encode(&d); err != nil {
		return
	}
	atomicfile.Write(filepath.Join(c.dir, k.filename()), buf.Bytes()) //mctlint:ignore uncheckederr the disk cache is an optimization, never a correctness dependency
}

// ResetSweepCache does nothing. Sweep caches are values their callers own
// (Options.Sweeps), so there is no process-wide cache left to clear; the
// function remains only because the benchmark harness in _perfbench still
// calls it.
func ResetSweepCache() {}
