package analysis

import (
	"go/ast"
	"go/types"
)

// Mapdet enforces the determinism contract on the packages whose
// output feeds result ordering: a query returns the same pairs in the
// same order, with the same counters, on every run (what the simtest
// oracle, the benchdiff counter gate and fault-schedule replay rely
// on), and that only holds if no code on the result path consults a
// nondeterministic source. Three sources are banned:
//
//   - `range` over a map — iteration order is deliberately randomized
//     by the runtime; iterate a sorted key slice instead;
//   - time.Now — wall-clock reads steer cutoff scheduling differently
//     run to run (telemetry belongs in trace/obsrv, which are out of
//     scope);
//   - math/rand and math/rand/v2 — randomized choices on the result
//     path break replay and the counter gate.
//
// In-scope packages are the engine core: join, hybridq, pqueue, sweep,
// extsort. Deliberate exceptions (a debug dump, a
// reproducibility-irrelevant sampling decision) are annotated with
// `//lint:allow mapdet <reason>`.
var Mapdet = &Analyzer{
	Name:      "mapdet",
	Doc:       "no map iteration, wall-clock, or math/rand on determinism-critical paths",
	SkipTests: true,
	Run:       runMapdet,
}

// mapdetScopes are the determinism-critical package scope bases.
var mapdetScopes = map[string]bool{
	"join": true, "hybridq": true, "pqueue": true,
	"sweep": true, "extsort": true,
}

func runMapdet(pass *Pass) error {
	base := scopeBase(pass.PkgPath)
	if exampleTree(pass.PkgPath) || !mapdetScopes[base] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.RangeStmt:
				t := pass.TypesInfo.Types[e.X].Type
				if t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(e.For, "range over a map in determinism-critical package %s: iteration order is randomized and would leak into result ordering; iterate a sorted key slice instead, or annotate with %s mapdet <reason>",
							base, allowPrefix)
					}
				}
			case *ast.CallExpr:
				fn := calleeFunc(pass.TypesInfo, e)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				switch path := fn.Pkg().Path(); {
				case path == "time" && fn.Name() == "Now":
					pass.Reportf(e.Pos(), "time.Now in determinism-critical package %s: wall-clock reads make runs diverge; thread explicit state instead, or annotate with %s mapdet <reason>",
						base, allowPrefix)
				case path == "math/rand" || path == "math/rand/v2":
					pass.Reportf(e.Pos(), "math/rand call (%s.%s) in determinism-critical package %s: randomized choices on the result path break replay and the counter gate; annotate a deliberate use with %s mapdet <reason>",
						fn.Pkg().Name(), fn.Name(), base, allowPrefix)
				}
			}
			return true
		})
	}
	return nil
}
