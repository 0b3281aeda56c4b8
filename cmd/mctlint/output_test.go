package main

import (
	"bytes"
	"go/token"
	"path/filepath"
	"testing"

	"mct/internal/analysis"
)

func sampleFindings() []jsonDiagnostic {
	// Deliberately out of order: rendering must sort.
	return []jsonDiagnostic{
		{File: "internal/sim/sim.go", Line: 40, Col: 2, Rule: "maprange", Message: "b"},
		{File: "internal/energy/energy.go", Line: 87, Col: 3, Rule: "maprange", Message: "a"},
		{File: "internal/sim/sim.go", Line: 12, Col: 9, Rule: "uncheckederr", Message: "c"},
		{File: "internal/sim/sim.go", Line: 12, Col: 9, Rule: "floateq", Message: "d"},
	}
}

func TestRenderJSONStableAndSorted(t *testing.T) {
	ds := sampleFindings()
	sortJSONDiagnostics(ds)
	first, err := renderJSON(ds)
	if err != nil {
		t.Fatal(err)
	}

	// Same findings arriving in a different order must render to the same
	// bytes once sorted — the byte-stability contract CI relies on.
	ds2 := sampleFindings()
	ds2[0], ds2[3] = ds2[3], ds2[0]
	sortJSONDiagnostics(ds2)
	second, err := renderJSON(ds2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("renders differ:\n%s\nvs\n%s", first, second)
	}

	if first[len(first)-1] != '\n' {
		t.Error("rendered JSON not newline-terminated")
	}
	// Sorted order: energy.go first, then sim.go line 12 (floateq before
	// uncheckederr), then line 40.
	if ds2[0].File != "internal/energy/energy.go" ||
		ds2[1].Rule != "floateq" || ds2[2].Rule != "uncheckederr" || ds2[3].Line != 40 {
		t.Errorf("unexpected sort order: %+v", ds2)
	}
}

func TestRenderJSONEmpty(t *testing.T) {
	out, err := renderJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "[]\n" {
		t.Errorf("empty render = %q, want %q", out, "[]\n")
	}
}

func TestToJSONDiagnosticsModuleRelative(t *testing.T) {
	moduleDir := string(filepath.Separator) + filepath.Join("home", "x", "repo")
	ds := toJSONDiagnostics(moduleDir, []analysis.Diagnostic{
		{
			Pos:     token.Position{Filename: filepath.Join(moduleDir, "internal", "sim", "sim.go"), Line: 3, Column: 1},
			Rule:    "floateq",
			Message: "m",
		},
	})
	if len(ds) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(ds))
	}
	if ds[0].File != "internal/sim/sim.go" {
		t.Errorf("path %q not module-relative slash form", ds[0].File)
	}
}
