// JSON export of the interprocedural artifacts: the static call graph and
// the hot-path allocation worklist. Both render deterministically (node
// order is the program's function index, edge order is source-discovery
// order, the worklist arrives pre-ranked) so CI can archive and diff them
// like any other build artifact.
package main

import (
	"go/token"
	"path/filepath"

	"mct/internal/analysis"
)

// jsonGraphEdge is one call-graph edge: caller and callee by printable
// function name, the edge kind (call, dispatch, ref), and the call site.
type jsonGraphEdge struct {
	Caller string `json:"caller"`
	Callee string `json:"callee"`
	Kind   string `json:"kind"`
	File   string `json:"file"`
	Line   int    `json:"line"`
}

// jsonGraph is the exported call-graph schema.
type jsonGraph struct {
	Nodes []string        `json:"nodes"`
	Edges []jsonGraphEdge `json:"edges"`
}

// graphJSON renders the program's call graph with module-relative paths.
func graphJSON(moduleDir string, g *analysis.CallGraph) ([]byte, error) {
	out := jsonGraph{Nodes: make([]string, 0, len(g.Nodes))}
	for _, fn := range g.Nodes {
		out.Nodes = append(out.Nodes, fn.Name)
	}
	for _, fn := range g.Nodes {
		for _, e := range g.Out[fn] {
			pos := g.Prog.Fset.Position(e.Pos)
			out.Edges = append(out.Edges, jsonGraphEdge{
				Caller: e.Caller.Name,
				Callee: e.Callee.Name,
				Kind:   e.Kind.String(),
				File:   relPath(moduleDir, pos),
				Line:   pos.Line,
			})
		}
	}
	return marshalArtifact(out)
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
