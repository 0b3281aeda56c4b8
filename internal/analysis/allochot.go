// allochot: allocation audit for the simulator's hot path.
//
// The per-access step loop is the simulator's inner loop — a single
// per-iteration heap allocation there dominates the profile at figure-
// sweep scale (millions of accesses × dozens of configurations). allochot
// makes that budget auditable: functions marked with a
//
//	//mctlint:hotpath
//
// directive in their doc comment are hot-path roots; every function
// reachable from a root through the call graph (calls, dispatch, and
// references — a closure handed to the worker pool runs on the hot path
// even though no call edge names it) is hot, and every allocation site in
// a hot function is reported, ranked loop-nested sites first, shallower
// call depth first.
//
// Recognized allocation kinds: make, new, append, &T{...}, map/slice
// composite literals, closure creation, []byte/string conversions, and
// non-constant string concatenation. The rule is an audit (severity
// "warn"), not a prohibition — amortized growth (an append that doubles a
// reusable buffer) is legitimate and gets a reasoned //mctlint:ignore.
// AllochotWorklist exposes the same sites suppression-blind, so the
// driver's -allochot-json artifact always carries the full ranked budget
// even where in-source ignores sanction individual sites (ROADMAP:
// "static worklist for the allocation-budget item").
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AllocHot is the hot-path allocation audit rule.
var AllocHot = &Analyzer{
	Name:       "allochot",
	Doc:        "no unjustified heap allocation in functions reachable from a //mctlint:hotpath root; hoist, pool, or suppress with a reason",
	Severity:   "warn",
	RunProgram: runAllocHot,
}

const hotPathDirective = "mctlint:hotpath"

// AllocSite is one allocation in a hot-path function.
type AllocSite struct {
	// Func is the containing function's printable name.
	Func string
	// Kind is the allocation flavor: "make", "new", "append", "&composite",
	// "composite", "closure", "conversion", "string concat".
	Kind string
	// InLoop marks sites inside a loop of their own function — the
	// per-iteration multiplier that ranks them first.
	InLoop bool
	// Depth is the call distance from the nearest hot-path root (0 = in
	// the root itself).
	Depth int
	// Pos is the source position.
	Pos token.Position

	pos token.Pos
}

func runAllocHot(prog *Program) {
	for _, s := range AllochotWorklist(prog) {
		loop := ""
		if s.InLoop {
			loop = ", inside a loop"
		}
		prog.Reportf(s.pos, "allochot",
			"hot-path allocation: %s at call depth %d from a hotpath root%s; hoist it out of the loop, reuse a buffer, or suppress with a reason", s.Kind, s.Depth, loop)
	}
}

// HotPathRoots returns the functions marked //mctlint:hotpath, in
// deterministic order.
func HotPathRoots(prog *Program) []*FuncInfo {
	var roots []*FuncInfo
	for _, fn := range prog.Funcs() {
		if fn.Decl == nil || fn.Decl.Doc == nil {
			continue
		}
		for _, c := range fn.Decl.Doc.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if text == hotPathDirective || strings.HasPrefix(text, hotPathDirective+" ") {
				roots = append(roots, fn)
				break
			}
		}
	}
	return roots
}

// AllochotWorklist computes the full ranked allocation worklist:
// suppression-blind, whole-program (not restricted to the analyze scope),
// loop-nested sites first, then by call depth, then by position.
func AllochotWorklist(prog *Program) []AllocSite {
	roots := HotPathRoots(prog)
	if len(roots) == 0 {
		return nil
	}
	reach := prog.CallGraph().Reachable(roots)
	var sites []AllocSite
	for _, fn := range prog.Funcs() {
		depth, hot := reach[fn]
		if !hot {
			continue
		}
		sites = append(sites, allocSitesIn(prog, fn, depth)...)
	}
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.InLoop != b.InLoop {
			return a.InLoop
		}
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column < b.Pos.Column
	})
	return sites
}

// allocSitesIn walks one function body for allocation expressions. Nested
// literals are skipped (they are their own call-graph nodes and are walked
// when reachable); the literal expression itself is a closure-allocation
// site of the enclosing function.
func allocSitesIn(prog *Program, fn *FuncInfo, depth int) []AllocSite {
	info := fn.Pkg.Info
	g := fn.CFG()
	var sites []AllocSite
	add := func(n ast.Node, kind string) {
		inLoop := false
		if b := g.BlockContaining(n.Pos()); b != nil {
			inLoop = g.InLoop(b)
		}
		sites = append(sites, AllocSite{
			Func:   fn.Name,
			Kind:   kind,
			InLoop: inLoop,
			Depth:  depth,
			Pos:    prog.Fset.Position(n.Pos()),
			pos:    n.Pos(),
		})
	}

	// Composite literals consumed by an enclosing & are reported once, as
	// "&composite"; nested ADDs of a concat chain report once at the top.
	taken := map[*ast.CompositeLit]bool{}
	inConcat := map[*ast.BinaryExpr]bool{}

	ast.Inspect(fn.Body(), func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			add(x, "closure")
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					taken[cl] = true
					add(x, "&composite")
				}
			}
		case *ast.CompositeLit:
			if taken[x] {
				return true
			}
			switch info.Types[x].Type.Underlying().(type) {
			case *types.Map:
				add(x, "composite")
			case *types.Slice:
				add(x, "composite")
			}
		case *ast.CallExpr:
			fun := ast.Unparen(x.Fun)
			if id, ok := fun.(*ast.Ident); ok {
				if _, ok := info.Uses[id].(*types.Builtin); ok {
					switch id.Name {
					case "make":
						add(x, "make")
					case "new":
						add(x, "new")
					case "append":
						add(x, "append")
					}
					return true
				}
			}
			if tv, ok := info.Types[fun]; ok && tv.IsType() && len(x.Args) == 1 {
				if kind, ok := allocConversion(info, tv.Type, x.Args[0]); ok {
					add(x, kind)
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isNonConstString(info, x) && !inConcat[x] {
				// Only the outermost concat of a chain reports: a+b+c is one
				// conceptual allocation, and Inspect visits the parent ADD
				// first.
				add(x, "string concat")
				markConcatOperands(x, inConcat)
			}
		}
		return true
	})
	return sites
}

// markConcatOperands flags the nested ADD nodes of a concat chain so only
// the outermost reports.
func markConcatOperands(e *ast.BinaryExpr, seen map[*ast.BinaryExpr]bool) {
	for _, op := range []ast.Expr{e.X, e.Y} {
		if b, ok := ast.Unparen(op).(*ast.BinaryExpr); ok && b.Op == token.ADD {
			seen[b] = true
			markConcatOperands(b, seen)
		}
	}
}

// allocConversion classifies string<->[]byte/[]rune conversions of
// non-constant operands, which copy.
func allocConversion(info *types.Info, target types.Type, arg ast.Expr) (string, bool) {
	if tv, ok := info.Types[arg]; ok && tv.Value != nil {
		return "", false // constant-folded
	}
	from := info.Types[arg].Type
	if from == nil {
		return "", false
	}
	toB, toOK := target.Underlying().(*types.Basic)
	fromB, fromOK := from.Underlying().(*types.Basic)
	toSlice, toSliceOK := target.Underlying().(*types.Slice)
	fromSlice, fromSliceOK := from.Underlying().(*types.Slice)
	byteOrRune := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	// string(bytes) / string(runes)
	if toOK && toB.Info()&types.IsString != 0 && fromSliceOK && byteOrRune(fromSlice.Elem()) {
		return "conversion", true
	}
	// []byte(s) / []rune(s)
	if toSliceOK && byteOrRune(toSlice.Elem()) && fromOK && fromB.Info()&types.IsString != 0 {
		return "conversion", true
	}
	return "", false
}

// isNonConstString reports whether e is a non-constant string-typed
// expression whose parent is not itself part of the same concat chain.
func isNonConstString(info *types.Info, e *ast.BinaryExpr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
