package experiments

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"mct/internal/atomicfile"
	"mct/internal/config"
	"mct/internal/sim"
)

// Sweeps are expensive (thousands of simulator runs), and separate mctbench
// invocations cannot share the in-process cache. Setting MCT_SWEEP_CACHE to
// a directory enables a gob disk cache keyed by the sweep parameters. An
// entry holds the sweep's sim.Metrics exactly as computed, so a cache hit
// returns the same sweep as the computation it replaces.
const cacheEnv = "MCT_SWEEP_CACHE"

// diskSweep is the on-disk form of a Sweep; the space is rebuilt from the
// key, and SpaceLen guards against caches from older space enumerations.
type diskSweep struct {
	SpaceLen int
	Indices  []int
	Metrics  []sim.Metrics
	Baseline sim.Metrics
	Default  sim.Metrics
}

func (k sweepKey) filename() string {
	// The o%016x component is the sim.Options digest: sweeps of different
	// simulated systems must land in different cache files. The .gob
	// suffix keeps files of the former JSON format from ever being read.
	return fmt.Sprintf("sweep_%s_a%d_s%d_wq%t_t%g_seed%d_o%016x.gob",
		k.bench, k.accesses, k.stride, k.wq, k.target, k.seed, k.sim)
}

// loadSweepFromDisk returns a cached sweep over space, or nil.
func loadSweepFromDisk(k sweepKey, space *config.Space) *Sweep {
	dir := os.Getenv(cacheEnv)
	if dir == "" {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(dir, k.filename()))
	if err != nil {
		return nil
	}
	var d diskSweep
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&d); err != nil {
		return nil
	}
	if d.SpaceLen != space.Len() || len(d.Indices) != len(d.Metrics) {
		return nil
	}
	// gob does not transmit empty maps, but a computed window always
	// carries a non-nil WritesByRatio (empty when it wrote nothing).
	restore := func(m *sim.Metrics) {
		if m.WritesByRatio == nil {
			m.WritesByRatio = map[float64]uint64{}
		}
	}
	for i := range d.Metrics {
		restore(&d.Metrics[i])
	}
	restore(&d.Baseline)
	restore(&d.Default)
	return &Sweep{Benchmark: k.bench, Space: space, Indices: d.Indices, Metrics: d.Metrics, Baseline: d.Baseline, Default: d.Default}
}

// storeSweepToDisk persists a sweep; failures are silent (the cache is an
// optimization, never a correctness dependency).
func storeSweepToDisk(k sweepKey, s *Sweep) {
	dir := os.Getenv(cacheEnv)
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	var buf bytes.Buffer
	d := diskSweep{SpaceLen: s.Space.Len(), Indices: s.Indices, Metrics: s.Metrics, Baseline: s.Baseline, Default: s.Default}
	if err := gob.NewEncoder(&buf).Encode(&d); err != nil {
		return
	}
	atomicfile.Write(filepath.Join(dir, k.filename()), buf.Bytes()) //mctlint:ignore uncheckederr the disk cache is an optimization, never a correctness dependency
}
