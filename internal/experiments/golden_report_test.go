// Golden equivalence gate for the tier-pipeline refactor at the report
// level: the fig1 experiment (sweep fan-out across benchmarks and
// configurations) rendered at Workers=1 and Workers=4 must stay
// byte-identical to the pre-refactor seed. Captured from the hard-coded
// llc/ctrl machine immediately before the hierarchy.Tier seam landed.
//
// Regenerate (only on an intentional, documented stream break):
//
//	MCT_UPDATE_GOLDEN=1 go test -run TestDefaultReportGolden ./internal/experiments
package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

const goldenReportFile = "testdata/golden_fig1_quick.txt"

func renderFig1(t *testing.T, workers int) string {
	t.Helper()
	o := tinyOptions()
	o.Sweeps = nil // cold: Run builds a fresh cache for the call
	o.Workers = workers
	o.Trials = 1
	rep, err := Run(context.Background(), "fig1", o)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	return buf.String()
}

func TestDefaultReportGolden(t *testing.T) {
	w1 := renderFig1(t, 1)
	w4 := renderFig1(t, 4)
	if w1 != w4 {
		t.Fatalf("fig1 differs between Workers=1 and Workers=4\n--- w=1:\n%s--- w=4:\n%s", w1, w4)
	}

	if os.Getenv("MCT_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenReportFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenReportFile, []byte(w1), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", goldenReportFile)
		return
	}
	want, err := os.ReadFile(goldenReportFile)
	if err != nil {
		t.Fatalf("golden file missing (capture it on the pre-refactor tree with MCT_UPDATE_GOLDEN=1): %v", err)
	}
	if w1 != string(want) {
		t.Errorf("fig1 report drifted from the pre-refactor golden\n--- want:\n%s--- got:\n%s", want, w1)
	}
}
