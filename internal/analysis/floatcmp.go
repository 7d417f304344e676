package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Floatcmp flags bit-exact comparisons of computed floating-point
// values — the class of bug that makes AM-KDJ's compensation logic
// (paper §4.1) silently dismiss pairs when a distance is NaN or
// differs in the last ulp:
//
//   - `==` / `!=` between two non-constant float operands;
//   - `switch` on a float tag;
//   - the builtin min/max over non-constant float operands, which
//     silently propagates NaN into pruning cutoffs.
//
// Comparisons against compile-time constants (`d == 0`,
// `ratio != 1.0`) are sentinel checks, not distance identity, and are
// not flagged; neither is the `x != x` NaN idiom. Legitimate bit-exact
// sites — the deterministic tie-breaks that fix the output order, and
// the hybrid queue's tie-run boundary scans — carry
// `//lint:allow floatcmp <reason>` annotations.
var Floatcmp = &Analyzer{
	Name:      "floatcmp",
	Doc:       "flag ==/!=/switch and builtin min/max on non-constant float values",
	SkipTests: true,
	Run:       runFloatcmp,
}

func runFloatcmp(pass *Pass) error {
	info := pass.TypesInfo
	isConst := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		return ok && tv.Value != nil
	}
	exprFloat := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		return ok && typeIsFloat(tv.Type)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				if e.Op != token.EQL && e.Op != token.NEQ {
					return true
				}
				if !exprFloat(e.X) || !exprFloat(e.Y) {
					return true
				}
				if isConst(e.X) || isConst(e.Y) {
					return true // sentinel comparison
				}
				if types.ExprString(e.X) == types.ExprString(e.Y) {
					return true // x != x NaN idiom
				}
				pass.Reportf(e.OpPos, "bit-exact float comparison %s %s %s: NaN or last-ulp drift silently changes the result; compare with a tolerance, use math.IsNaN, or annotate the bit-exact intent with %s floatcmp <reason>",
					types.ExprString(e.X), e.Op, types.ExprString(e.Y), allowPrefix)
			case *ast.SwitchStmt:
				if e.Tag != nil && exprFloat(e.Tag) {
					pass.Reportf(e.Switch, "switch on float value %s: float case matching is bit-exact and NaN never matches; restructure as ordered comparisons or annotate with %s floatcmp <reason>",
						types.ExprString(e.Tag), allowPrefix)
				}
			case *ast.CallExpr:
				id, ok := ast.Unparen(e.Fun).(*ast.Ident)
				if !ok || (id.Name != "min" && id.Name != "max") {
					return true
				}
				if _, ok := info.Uses[id].(*types.Builtin); !ok {
					return true
				}
				anyFloat, allConst := false, true
				for _, arg := range e.Args {
					if exprFloat(arg) {
						anyFloat = true
					}
					if !isConst(arg) {
						allConst = false
					}
				}
				if anyFloat && !allConst {
					pass.Reportf(e.Pos(), "builtin %s on float operands propagates NaN into the result: a NaN distance poisons every downstream cutoff; guard operands with math.IsNaN or annotate with %s floatcmp <reason>",
						id.Name, allowPrefix)
				}
			}
			return true
		})
	}
	return nil
}
