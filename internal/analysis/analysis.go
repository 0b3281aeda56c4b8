// Package analysis is a dependency-free static-analysis framework for the
// MCT tree, built only on the standard library's go/ast, go/parser and
// go/types (no golang.org/x/tools). It exists because the reproduction's
// claims rest on the simulator being deterministic and numerically careful:
// a silent float-equality branch, a truncating cycle cast or map order
// reaching a sum can shift IPC/lifetime predictions and invalidate the
// reproduced figure shapes. TestModuleTreeClean, part of go test ./...,
// walks the module, runs the registered analyzers over every type-checked
// package, and fails on each finding, printed as "file:line: [rule] message"
// with the path relative to the module.
//
// Findings can be suppressed with a directive comment on the offending line
// or on the line directly above it:
//
//	//mctlint:ignore <rule> <reason>
//
// The reason is mandatory and the rule must be in the registry: a directive
// without a reason, or naming an unknown rule (a typo, or a rule since
// deleted), is itself reported and suppresses nothing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// Pass carries one type-checked package through the analyzers.
type Pass struct {
	Fset    *token.FileSet
	PkgPath string
	Pkg     *types.Package
	Files   []*ast.File
	Info    *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// ForEachFunc visits every function with a body in file — declarations and
// literals, in source order. Literals nested inside another function are
// visited separately, so a rule that skips FuncLit nodes while walking body
// sees each statement under exactly one function.
func ForEachFunc(file *ast.File, visit func(fn ast.Node, body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch f := n.(type) {
		case *ast.FuncDecl:
			if f.Body != nil {
				visit(f, f.Body)
			}
		case *ast.FuncLit:
			visit(f, f.Body)
		}
		return true
	})
}

// Analyzer is one lint rule, invoked once per type-checked package.
type Analyzer struct {
	// Name is the rule identifier used in output and ignore directives.
	Name string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Analyzers returns the registry: every simulator-aware rule. maprange
// walks whole function bodies (ForEachFunc); the others match single
// statements or declarations.
// Copying a lock by value is go vet's copylocks check and data races are
// the race detector's, so no rule here repeats them. Determinism of
// reports, dumps and checkpoints, the completeness of Clone/Snapshot,
// hot-path allocations, lock release, seeded randomness, metric
// registration, context propagation and goroutine teardown are pinned by
// the golden, worker-count, snapshot round-trip, zero-alloc,
// engine/queue/registry, telemetry, cancellation and goroutine tests
// rather than by a rule.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FloatEq,
		UncheckedErr,
		CycleCast,
		MapRange,
	}
}

const ignorePrefix = "mctlint:ignore"

// suppressKey identifies one (file, line, rule) suppression slot.
type suppressKey struct {
	file string
	line int
	rule string
}

// suppressions collects the suppression slots of the package's ignore
// directives: a directive on line L suppresses matching findings on L and
// L+1 (trailing comment or comment-above placement). A malformed directive
// (missing rule or reason) suppresses nothing; it, and a well-formed one
// naming a rule outside the full registry, is reported under the reserved
// rule name "mctlint". The registry check uses the full registry even when
// fewer analyzers run: a directive for a rule that exists but is not running
// is still live.
func suppressions(pass *Pass) map[suppressKey]bool {
	suppressed := map[suppressKey]bool{}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, ignorePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					pass.Reportf(c.Pos(), "mctlint", "malformed ignore directive: want //mctlint:ignore <rule> <reason>")
					continue
				}
				if !registered(fields[0]) {
					pass.Reportf(c.Pos(), "mctlint", "ignore directive names unknown rule %q (see analysis.Analyzers)", fields[0])
				}
				pos := pass.Fset.Position(c.Pos())
				suppressed[suppressKey{pos.Filename, pos.Line, fields[0]}] = true
				suppressed[suppressKey{pos.Filename, pos.Line + 1, fields[0]}] = true
			}
		}
	}
	return suppressed
}

// registered reports whether rule names an analyzer of the full registry.
func registered(rule string) bool {
	for _, a := range Analyzers() {
		if a.Name == rule {
			return true
		}
	}
	return false
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// RunAnalyzers runs every analyzer over the package, applies
// ignore directives, and returns the surviving findings sorted by position,
// plus one "mctlint" finding per malformed or unknown-rule directive.
func RunAnalyzers(pass *Pass, analyzers []*Analyzer) []Diagnostic {
	for _, a := range analyzers {
		a.Run(pass)
	}
	suppressed := suppressions(pass)
	var out []Diagnostic
	for _, d := range pass.diags {
		if d.Rule != "mctlint" && suppressed[suppressKey{d.Pos.Filename, d.Pos.Line, d.Rule}] {
			continue
		}
		out = append(out, d)
	}
	sortDiagnostics(out)
	return out
}
