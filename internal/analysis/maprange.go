package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange reports ranges over maps whose iteration order can leak into an
// output or an ordering-sensitive accumulation. Go randomizes map iteration
// order per run, so a report row, a formatted line, or a float sum built
// directly from a map range differs between identically-seeded runs — the
// exact nondeterminism class the reproduction's byte-identical-report tests
// guard against.
//
// A range over a map is fine when its effects are order-insensitive
// (copying into another map, counting with integers) or when it only
// collects keys/values into a slice that is sorted before use — the
// canonical fix. The analyzer recognizes that idiom by source order: an
// accumulation is exempt when the collecting slice is passed to a sort.* or
// slices.* call in the same function body, placed after the range statement
// starts (inside the loop body or after it). A sort in dead code after a
// return counts too; go vet's unreachable check reports that code.
var MapRange = &Analyzer{
	Name: "maprange",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			ForEachFunc(f, func(fn ast.Node, body *ast.BlockStmt) {
				runMapRange(pass, body)
			})
		}
	},
}

// fmtOutputFuncs are the fmt functions that write somewhere. The Sprint
// family returns a value instead; if that value lands in an accumulation,
// the accumulation rules catch it (with the sorted-slice exemption intact).
var fmtOutputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// outputMethods are method names that write to a sink (io.Writer
// implementations, string builders, report tables). Exact names, not
// prefixes: a domain method like WriteEnergy is a lookup, not a writer.
var outputMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteTo": true, "Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"AddRow": true, "Note": true,
}

func runMapRange(pass *Pass, body *ast.BlockStmt) {
	// Find the map ranges of this function only; nested literals get their
	// own visit.
	var ranges []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if r, ok := n.(*ast.RangeStmt); ok {
			if tv, ok := pass.Info.Types[r.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					ranges = append(ranges, r)
				}
			}
		}
		return true
	})
	for _, r := range ranges {
		checkMapRange(pass, body, r)
	}
}

// objOf resolves an identifier to its object (definition or use).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// rootIdent returns the leftmost identifier of an lvalue chain
// (b.NVMWrite → b, xs[i] → xs).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func checkMapRange(pass *Pass, fnBody *ast.BlockStmt, r *ast.RangeStmt) {
	// Taint starts at the loop variables and spreads through assignments
	// inside the body, so `s := m[k]; buf.WriteString(s)` is caught too.
	taint := map[types.Object]bool{}
	addTaint := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if o := objOf(pass.Info, id); o != nil {
				taint[o] = true
			}
		}
	}
	if r.Key != nil {
		addTaint(r.Key)
	}
	if r.Value != nil {
		addTaint(r.Value)
	}

	mentionsTaint := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				if o := objOf(pass.Info, id); o != nil && taint[o] {
					found = true
				}
			}
			return !found
		})
		return found
	}

	declaredOutsideLoop := func(o types.Object) bool {
		return o != nil && (o.Pos() < r.Body.Pos() || o.Pos() >= r.Body.End())
	}

	type accum struct {
		obj  types.Object // the collecting slice (exemption candidate)
		pos  token.Pos
		what string
	}
	var accums []accum

	ast.Inspect(r.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			// Taint propagation through straight assignments.
			if len(x.Lhs) == len(x.Rhs) {
				for i, rhs := range x.Rhs {
					if mentionsTaint(rhs) {
						if id, ok := x.Lhs[i].(*ast.Ident); ok {
							addTaint(id)
						}
					}
				}
			}
			switch x.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				// Order-sensitive compound accumulation: float rounding and
				// string concatenation depend on iteration order; integer
				// sums do not.
				lhs := x.Lhs[0]
				tv, ok := pass.Info.Types[lhs]
				if !ok {
					return true
				}
				basic, ok := tv.Type.Underlying().(*types.Basic)
				if !ok {
					return true
				}
				sensitive := basic.Info()&types.IsFloat != 0 ||
					basic.Info()&types.IsComplex != 0 ||
					(x.Tok == token.ADD_ASSIGN && basic.Info()&types.IsString != 0)
				if !sensitive || !mentionsTaint(x.Rhs[0]) {
					return true
				}
				if root := rootIdent(lhs); root != nil && declaredOutsideLoop(objOf(pass.Info, root)) {
					pass.Reportf(x.Pos(), "maprange",
						"map iteration accumulates into %s in random order (%s is order-sensitive); iterate sorted keys",
						types.ExprString(lhs), basic.String())
				}
			default:
				// Slice accumulation: xs = append(xs, ...tainted...).
				for i, rhs := range x.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || len(call.Args) < 2 {
						continue
					}
					id, ok := call.Fun.(*ast.Ident)
					if !ok || id.Name != "append" {
						continue
					}
					if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
						continue // user-defined append
					}
					tainted := false
					for _, a := range call.Args[1:] {
						if mentionsTaint(a) {
							tainted = true
						}
					}
					if !tainted || i >= len(x.Lhs) {
						continue
					}
					root := rootIdent(x.Lhs[i])
					if root == nil {
						continue
					}
					o := objOf(pass.Info, root)
					if declaredOutsideLoop(o) {
						accums = append(accums, accum{obj: o, pos: x.Pos(), what: types.ExprString(x.Lhs[i])})
					}
				}
			}

		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			argsTainted := false
			for _, a := range x.Args {
				if mentionsTaint(a) {
					argsTainted = true
				}
			}
			if !argsTainted {
				return true
			}
			if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
				if fn.Pkg().Path() == "fmt" && fmtOutputFuncs[fn.Name()] {
					pass.Reportf(x.Pos(), "maprange",
						"map iteration order reaches fmt.%s output; iterate sorted keys instead", fn.Name())
					return true
				}
			}
			if pass.Info.Selections[sel] != nil && outputMethods[sel.Sel.Name] {
				pass.Reportf(x.Pos(), "maprange",
					"map iteration order reaches output method %s; iterate sorted keys instead", sel.Sel.Name)
			}
		}
		return true
	})

	// Sorted-slice exemption: an accumulation is the first half of the
	// canonical collect-then-sort idiom when the slice flows into a sort
	// call placed after this loop starts.
	for _, a := range accums {
		if !sortedAfter(pass, fnBody, r, a.obj) {
			pass.Reportf(a.pos, "maprange",
				"map iteration appends to %s in random order and %s is never sorted; sort it before use", a.what, a.what)
		}
	}
}

// sortedAfter reports whether obj is passed to a sort.* or slices.* call
// in fnBody that starts after the range statement does. A sort before the
// loop, even one a surrounding loop runs again, does not order this
// range's appends.
func sortedAfter(pass *Pass, fnBody *ast.BlockStmt, r *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= r.Pos() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, a := range call.Args {
			ast.Inspect(a, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok && objOf(pass.Info, id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
