package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mct/internal/config"
)

// TestStepInstructionsChunkEquivalence is the determinism contract behind
// resumable evaluate jobs: splitting an instruction budget into arbitrary
// StepInstructions chunks must produce exactly the metrics of one straight
// RunInstructions over the same budget — stepping is per-access against an
// instruction target, so chunk boundaries cannot change the access stream.
func TestStepInstructionsChunkEquivalence(t *testing.T) {
	const total = 400_000
	ref := mustMachine(t, "lbm", config.StaticBaseline())
	ref.Warmup(DefaultWarmupAccesses)
	want := ref.RunInstructions(total)

	for _, chunks := range [][]uint64{
		{total},
		{100_000, 100_000, 100_000, 100_000},
		{1, 399_999},
		{123_457, 123_457, 123_457, 123_457}, // overshoots total; loop must clamp
	} {
		m := mustMachine(t, "lbm", config.StaticBaseline())
		m.Warmup(DefaultWarmupAccesses)
		for _, c := range chunks {
			if done := m.WindowInstructions(); done >= total {
				break
			} else if rem := total - done; c > rem {
				c = rem
			}
			m.StepInstructions(c)
		}
		got := m.WindowMetrics()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunks %v drifted from straight run:\n got %+v\nwant %+v", chunks, got.Vector(), want.Vector())
		}
	}
}

// TestStepInstructionsCheckpointEquivalence extends the chunk contract across
// a save/load cycle between every chunk — the daemon's kill -9 scenario. The
// window-start markers ride the checkpoint, so the resumed machine's final
// WindowMetrics still equals the uninterrupted run's.
func TestStepInstructionsCheckpointEquivalence(t *testing.T) {
	const total = 300_000
	ref := mustMachine(t, "stream", config.StaticBaseline())
	ref.Warmup(DefaultWarmupAccesses)
	want := ref.RunInstructions(total)

	path := filepath.Join(t.TempDir(), "machine.ckpt")
	m := mustMachine(t, "stream", config.StaticBaseline())
	m.Warmup(DefaultWarmupAccesses)
	for m.WindowInstructions() < total {
		c := uint64(75_000)
		if rem := total - m.WindowInstructions(); c > rem {
			c = rem
		}
		m.StepInstructions(c)
		if err := SaveCheckpoint(path, m); err != nil {
			t.Fatal(err)
		}
		// Resume from disk as a fresh process would, discarding the live
		// machine entirely.
		var err error
		m, err = LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := m.WindowMetrics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpointed chunks drifted from straight run:\n got %+v\nwant %+v", got.Vector(), want.Vector())
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
}
