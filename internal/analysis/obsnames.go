package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// ObsNames checks metric registrations on obs.Registry. The observability
// layer's determinism contract rests on metric identity being static: a
// dump is byte-stable only when every instrument name is a compile-time
// string drawn from one grammar, and a name registered twice in one
// constructor is almost always a copy-paste error that the runtime
// collision check would only catch when that code path executes. The rule
// enforces, at every Counter/Gauge/Histogram/VolatileGauge/
// VolatileHistogram call site:
//
//   - the name argument is a compile-time string constant (no runtime
//     concatenation, no variables);
//   - the name matches the registry grammar [a-z0-9_.]+;
//   - within one function body, each name is registered at most once
//     (cross-function re-lookup, as in clone rebinding, is legitimate:
//     getOrCreate is idempotent).
var ObsNames = &Analyzer{
	Name: "obsnames",
	Doc:  "metric names must be literal [a-z0-9_.]+ strings, registered once per function",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			ForEachFunc(f, func(fn ast.Node, body *ast.BlockStmt) {
				runObsNames(pass, body)
			})
		}
	},
}

// obsRegisterMethods are the registration entry points of obs.Registry.
var obsRegisterMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"VolatileGauge": true, "VolatileHistogram": true,
}

// obsNameRe mirrors the registry's runtime grammar check.
var obsNameRe = regexp.MustCompile(`^[a-z0-9_.]+$`)

// isObsRegistryMethod reports whether the call is one of the registration
// methods of the observability registry (package path ending in
// "internal/obs").
func isObsRegistryMethod(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !obsRegisterMethods[sel.Sel.Name] {
		return "", false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if ok && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/obs") {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return sel.Sel.Name, true
		}
	}
	return "", false
}

func runObsNames(pass *Pass, body *ast.BlockStmt) {
	seen := map[string]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// Nested literals get their own ForEachFunc visit (and their
			// own duplicate scope).
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := isObsRegistryMethod(pass, call)
		if !ok || len(call.Args) == 0 {
			return true
		}
		arg := call.Args[0]
		tv, ok := pass.Info.Types[arg]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			pass.Reportf(arg.Pos(), "obsnames",
				"metric name passed to %s must be a compile-time string constant", method)
			return true
		}
		name := constant.StringVal(tv.Value)
		if !obsNameRe.MatchString(name) {
			pass.Reportf(arg.Pos(), "obsnames",
				"metric name %q does not match the registry grammar [a-z0-9_.]+", name)
			return true
		}
		if prev, dup := seen[name]; dup {
			pass.Reportf(arg.Pos(), "obsnames",
				"metric %q already registered in this function (first at line %d)",
				name, pass.Fset.Position(prev).Line)
			return true
		}
		seen[name] = arg.Pos()
		return true
	})
}
