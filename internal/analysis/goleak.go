package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// GoLeak reports `go` statements whose goroutine is tied to no shutdown
// mechanism. A goroutine that neither watches a context.Context, nor is
// awaited through a sync.WaitGroup, nor runs under the engine package's
// worker pool can outlive the run that spawned it: it keeps mutating stats
// or holding a core busy after a sweep is cancelled, which both leaks
// memory under sustained load and lets a stale worker perturb the next
// experiment's timing.
//
// Evidence of tracking is any reference inside the spawned call (function
// expression, arguments, or literal body) to:
//
//   - a value of type context.Context (the goroutine can observe
//     cancellation),
//   - a sync.WaitGroup or one of its methods (someone waits for it),
//   - anything mct/internal/engine declares: a package-level function,
//     type or variable, or a field or method (the pool already enforces
//     the contract).
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "every `go` statement must be tied to a context.Context, sync.WaitGroup, or engine primitive",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if !goroutineTracked(pass, g) {
					pass.Reportf(g.Pos(), "goleak",
						"goroutine is tied to no context.Context, sync.WaitGroup, or engine primitive and can outlive the run")
				}
				return true
			})
		}
	},
}

// goroutineTracked scans the spawned call for shutdown-mechanism evidence.
func goroutineTracked(pass *Pass, g *ast.GoStmt) bool {
	tracked := false
	ast.Inspect(g.Call, func(n ast.Node) bool {
		if tracked {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := objOf(pass.Info, id)
		if obj == nil {
			return true
		}
		if fn, ok := obj.(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if isTrackingType(sig.Recv().Type()) {
					tracked = true
					return false
				}
			}
			if fn.Pkg() != nil && isEnginePkg(fn.Pkg().Path()) {
				tracked = true
				return false
			}
		}
		if isTrackingType(obj.Type()) {
			tracked = true
			return false
		}
		if p := obj.Pkg(); p != nil && isEnginePkg(p.Path()) && declaredByPkg(obj) {
			tracked = true
			return false
		}
		return true
	})
	return tracked
}

// declaredByPkg reports whether obj is a member of its package: declared
// at package scope, or a field or method (which have no scope). A package
// name lives in a file scope and a local in a function scope, and their
// Pkg is merely the package they appear in — inside the engine package,
// `time` in time.Sleep or a local counter is no engine primitive.
func declaredByPkg(obj types.Object) bool {
	return obj.Parent() == nil || obj.Parent() == obj.Pkg().Scope()
}

// isTrackingType reports whether t (possibly behind a pointer) is
// context.Context, sync.WaitGroup, or a type defined in the engine package.
func isTrackingType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	switch {
	case path == "context" && obj.Name() == "Context":
		return true
	case path == "sync" && obj.Name() == "WaitGroup":
		return true
	case isEnginePkg(path):
		return true
	}
	return false
}

// isEnginePkg matches the module's worker-pool package (and its test
// fixture stand-ins).
func isEnginePkg(path string) bool {
	return strings.HasSuffix(path, "internal/engine")
}
