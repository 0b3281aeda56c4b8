package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// isFloat reports whether t's underlying type is a floating-point basic
// type (including untyped float constants).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isExactZero reports whether the expression is a compile-time constant
// equal to zero. Comparing against exact zero is well-defined (division
// guards, "unset" sentinels) and exempt from the rule.
func isExactZero(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}

// FloatEq flags == and != between float-typed operands. Rounding error
// accumulated along the simulator's cycle/energy paths silently flips such
// branches; use internal/floats.Eq (epsilon comparison) or suppress with a
// written justification where exactness is genuinely intended.
var FloatEq = &Analyzer{
	Name: "floateq",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				xt, xok := pass.Info.Types[be.X]
				yt, yok := pass.Info.Types[be.Y]
				if !xok || !yok || !isFloat(xt.Type) || !isFloat(yt.Type) {
					return true
				}
				if isExactZero(pass, be.X) || isExactZero(pass, be.Y) {
					return true
				}
				pass.Reportf(be.OpPos, "floateq",
					"float %s comparison; use floats.Eq (epsilon) or justify exactness with an ignore directive", be.Op)
				return true
			})
		}
	},
}
