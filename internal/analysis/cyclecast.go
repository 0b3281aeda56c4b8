package analysis

import (
	"go/ast"
	"go/types"
)

// narrowTarget lists integer conversion targets that cannot represent every
// uint64 (or, for the small ones, every int64) value on a 64-bit platform.
func narrowTarget(k types.BasicKind) (bits int, signed bool, ok bool) {
	switch k {
	case types.Int8:
		return 8, true, true
	case types.Int16:
		return 16, true, true
	case types.Int32:
		return 32, true, true
	case types.Int, types.Int64:
		return 64, true, true
	case types.Uint8:
		return 8, false, true
	case types.Uint16:
		return 16, false, true
	case types.Uint32:
		return 32, false, true
	case types.Uint, types.Uint64, types.Uintptr:
		return 64, false, true
	}
	return 0, false, false
}

// CycleCast flags narrowing conversions of 64-bit counters — e.g.
// int(uint64Expr) or int32(int64Expr) — which overflow silently once a long
// simulation's cycle/access counters pass 2³¹ or 2⁶³. Clamp explicitly and
// suppress with the justification, or keep the wide type.
var CycleCast = &Analyzer{
	Name: "cyclecast",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				funTV, ok := pass.Info.Types[call.Fun]
				if !ok || !funTV.IsType() {
					return true
				}
				dst, ok := funTV.Type.Underlying().(*types.Basic)
				if !ok {
					return true
				}
				argTV, ok := pass.Info.Types[call.Args[0]]
				if !ok || argTV.Value != nil {
					return true // constant conversions are checked at compile time
				}
				src, ok := argTV.Type.Underlying().(*types.Basic)
				if !ok {
					return true
				}
				bits, signed, ok := narrowTarget(dst.Kind())
				if !ok {
					return true
				}
				var narrowing bool
				switch src.Kind() {
				case types.Uint64, types.Uint, types.Uintptr:
					// Any signed target halves the range; unsigned targets
					// below 64 bits truncate.
					narrowing = signed || bits < 64
				case types.Int64:
					// Signed targets below 64 bits truncate; unsigned
					// targets wrap negatives.
					narrowing = (signed && bits < 64) || !signed
				case types.Int:
					// int→uint* is the ubiquitous non-negative loop-counter
					// idiom and stays allowed; narrower signed targets
					// truncate.
					narrowing = signed && bits < 64
				}
				if !narrowing {
					return true
				}
				pass.Reportf(call.Pos(), "cyclecast",
					"narrowing conversion %s(%s) overflows silently on long simulations; clamp and justify, or keep the wide type",
					types.TypeString(funTV.Type, types.RelativeTo(pass.Pkg)),
					types.TypeString(argTV.Type, types.RelativeTo(pass.Pkg)))
				return true
			})
		}
	},
}
