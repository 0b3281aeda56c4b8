// Machine-readable output.
//
// The JSON form exists so CI can archive the findings: paths are
// module-relative with forward slashes and the array is sorted by (file,
// line, col, rule, message), so the rendered bytes are identical across
// runs, working directories and operating systems.
package main

import (
	"encoding/json"
	"fmt"
	"go/token"
	"path/filepath"
	"sort"

	"mct/internal/analysis"
)

// jsonDiagnostic is one finding in the machine-readable -json schema.
type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// String renders the finding in the driver's classic text format.
func (d jsonDiagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Rule, d.Message)
}

// toJSONDiagnostics converts analyzer diagnostics to the stable schema:
// module-relative slash paths, sorted.
func toJSONDiagnostics(moduleDir string, diags []analysis.Diagnostic) []jsonDiagnostic {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:    relPath(moduleDir, d.Pos),
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Rule:    d.Rule,
			Message: d.Message,
		})
	}
	sortJSONDiagnostics(out)
	return out
}

func sortJSONDiagnostics(ds []jsonDiagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// renderJSON marshals findings as a two-space indented JSON array
// terminated by a newline. An empty set renders as "[]" so the artifact is
// always valid JSON.
func renderJSON(ds []jsonDiagnostic) ([]byte, error) {
	if len(ds) == 0 {
		return []byte("[]\n"), nil
	}
	b, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// relPath renders a position's file module-relative with forward slashes,
// falling back to the raw name for files outside the module.
func relPath(moduleDir string, pos token.Position) string {
	if rel, err := filepath.Rel(moduleDir, pos.Filename); err == nil && !filepath.IsAbs(rel) {
		return filepath.ToSlash(rel)
	}
	return pos.Filename
}
