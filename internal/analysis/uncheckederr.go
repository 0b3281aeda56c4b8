package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// resultHasError reports whether a call's result includes an error.
func resultHasError(t types.Type) bool {
	switch rt := t.(type) {
	case *types.Tuple:
		for i := 0; i < rt.Len(); i++ {
			if types.Identical(rt.At(i).Type(), errorType) {
				return true
			}
		}
		return false
	default:
		return types.Identical(t, errorType)
	}
}

// exemptCallee exempts callees whose errors are nil by contract or go to
// best-effort human output: fmt print functions and the Write*/String
// methods of strings.Builder and bytes.Buffer.
func exemptCallee(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if fn.Pkg().Path() == "fmt" && sig.Recv() == nil &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return true
	}
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				full := obj.Pkg().Path() + "." + obj.Name()
				if full == "strings.Builder" || full == "bytes.Buffer" {
					return true
				}
			}
		}
	}
	return false
}

// UncheckedErr flags discarded results in internal/ packages: bare call
// statements whose results include an error, blank assignments of
// error-typed values, and dead "_ = x" discards of locals. A swallowed
// error in the simulator or cache layers silently degrades an experiment
// into measuring the wrong thing.
var UncheckedErr = &Analyzer{
	Name: "uncheckederr",
	Run: func(pass *Pass) {
		if !strings.Contains("/"+pass.PkgPath+"/", "/internal/") {
			return
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.ExprStmt:
					call, ok := st.X.(*ast.CallExpr)
					if !ok {
						return true
					}
					tv, ok := pass.Info.Types[call]
					if !ok || !resultHasError(tv.Type) || exemptCallee(pass, call) {
						return true
					}
					pass.Reportf(call.Pos(), "uncheckederr",
						"result of call includes an error that is silently discarded; handle or propagate it")
					return false
				case *ast.AssignStmt:
					// Only fully-blank assignments: `_ = x`, `_, _ = f()`.
					for _, lhs := range st.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok || id.Name != "_" {
							return true
						}
					}
					for _, rhs := range st.Rhs {
						tv, ok := pass.Info.Types[rhs]
						if !ok {
							continue
						}
						if resultHasError(tv.Type) {
							if call, ok := rhs.(*ast.CallExpr); ok && exemptCallee(pass, call) {
								continue
							}
							pass.Reportf(rhs.Pos(), "uncheckederr",
								"error discarded with `_ =`; handle or propagate it")
							continue
						}
						if id, ok := rhs.(*ast.Ident); ok {
							pass.Reportf(rhs.Pos(), "uncheckederr",
								"dead discard `_ = %s`; delete the unused value or use it", id.Name)
						}
					}
				}
				return true
			})
		}
	},
}
