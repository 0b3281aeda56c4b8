// Machine-readable output.
//
// The JSON forms exist so CI can archive the findings and the hot-path
// allocation worklist: paths are module-relative with forward slashes, the
// findings array is sorted by (file, line, col, rule, message) and the
// worklist arrives pre-ranked, so the rendered bytes are identical across
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
	// Severity is derived from the rule ("error" or "warn").
	Severity string `json:"severity,omitempty"`
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

// renderJSON marshals findings as an indented JSON array terminated by a
// newline. An empty set renders as "[]" so the artifact is always valid
// JSON.
func renderJSON(ds []jsonDiagnostic) ([]byte, error) {
	if len(ds) == 0 {
		return []byte("[]\n"), nil
	}
	return marshalArtifact(ds)
}

// marshalArtifact marshals v as two-space indented JSON terminated by a
// newline: the byte form of every JSON output the driver writes.
func marshalArtifact(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// applySeverities stamps each finding with its rule's severity.
func applySeverities(ds []jsonDiagnostic, sev map[string]string) {
	for i := range ds {
		ds[i].Severity = sev[ds[i].Rule]
	}
}

// jsonAllocSite is one worklist entry of the hot-path allocation audit.
type jsonAllocSite struct {
	Func   string `json:"func"`
	Kind   string `json:"kind"`
	InLoop bool   `json:"inLoop"`
	Depth  int    `json:"depth"`
	File   string `json:"file"`
	Line   int    `json:"line"`
}

// allochotJSON renders the ranked allocation worklist (already sorted by
// AllochotWorklist: in-loop first, then shallower call depth).
func allochotJSON(moduleDir string, sites []analysis.AllocSite) ([]byte, error) {
	if len(sites) == 0 {
		return []byte("[]\n"), nil
	}
	out := make([]jsonAllocSite, 0, len(sites))
	for _, s := range sites {
		out = append(out, jsonAllocSite{
			Func:   s.Func,
			Kind:   s.Kind,
			InLoop: s.InLoop,
			Depth:  s.Depth,
			File:   relPath(moduleDir, s.Pos),
			Line:   s.Pos.Line,
		})
	}
	return marshalArtifact(out)
}

// relPath renders a position's file module-relative with forward slashes,
// falling back to the raw name for files outside the module.
func relPath(moduleDir string, pos token.Position) string {
	if rel, err := filepath.Rel(moduleDir, pos.Filename); err == nil && !filepath.IsAbs(rel) {
		return filepath.ToSlash(rel)
	}
	return pos.Filename
}
