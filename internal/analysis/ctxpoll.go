package analysis

import "go/ast"

// Ctxpoll requires every queue-draining loop in the join and serving
// packages to poll for cancellation. The paper's multi-stage
// traversal (§4.2–§4.3) drains the hybrid priority queue and the
// external-sort iterator in unbounded `for` loops; without a poll, a
// cancelled or deadline-hit query spins until the queue empties — the
// exact hang the execContext.cancelled() throttle
// (cancelEvery/progressEvery) exists to prevent. The serving layer's
// cursors, which pull pages from the public Iterator, are a drain
// shape with the same failure mode.
//
// A loop is in scope when its body (function literals excluded — they
// run on other goroutines or later) drains a work source:
//
//   - Pop or Peek on a hybridq.Queue,
//   - Next on an extsort iterator,
//   - Next on the public distjoin.Iterator (the serving cursor pull).
//
// Such a loop must poll cancellation in its body: a call to a method
// or function named `cancelled` (the execContext poll), a
// context.Context Err() check, or a same-package helper whose
// call-graph summary (summary.go) says it polls. Loops that are
// bounded by construction — a batch fill capped by page size — are
// annotated with
// `//lint:allow ctxpoll <reason>` instead.
var Ctxpoll = &Analyzer{
	Name:      "ctxpoll",
	Doc:       "queue-draining loops in join/serving must poll cancellation",
	SkipTests: true,
	Run:       runCtxpoll,
}

// ctxpollScopes are the package scope bases the analyzer runs in.
var ctxpollScopes = map[string]bool{"join": true, "serving": true}

func runCtxpoll(pass *Pass) error {
	if exampleTree(pass.PkgPath) || !ctxpollScopes[scopeBase(pass.PkgPath)] {
		return nil
	}
	sums := pass.summaries()
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				// Function literals are inspected when the walk reaches
				// them from the top; a loop inside one is still a loop.
				return true
			}
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			trigger := pass.ctxpollTrigger(loop)
			if trigger == "" {
				return true
			}
			if pass.ctxpollHasPoll(loop.Body, sums) {
				return true
			}
			pass.Reportf(loop.For, "loop drains %s without polling cancellation: a cancelled query spins until the source empties; call c.cancelled() in the loop body or annotate a bounded loop with %s ctxpoll <reason>",
				trigger, allowPrefix)
			return true
		})
	}
	return nil
}

// ctxpollTrigger reports the first work-source drain in the loop body
// ("" when none): hybridq.Queue Pop/Peek, an extsort Next, or a
// distjoin.Iterator Next. Function literals are skipped — their
// bodies execute elsewhere.
func (pass *Pass) ctxpollTrigger(loop *ast.ForStmt) string {
	trigger := ""
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if trigger != "" {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := pass.TypesInfo.Types[sel.X].Type
		switch sel.Sel.Name {
		case "Pop", "Peek":
			if namedTypeIn(recv, "Queue", "hybridq") {
				trigger = "hybridq.Queue." + sel.Sel.Name
			}
		case "Next":
			if fn := calleeFunc(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil &&
				scopeBase(fn.Pkg().Path()) == "extsort" {
				trigger = "extsort " + sel.Sel.Name
			} else if namedTypeIn(recv, "Iterator", "distjoin") {
				trigger = "distjoin.Iterator.Next"
			}
		}
		return true
	})
	return trigger
}

// ctxpollHasPoll reports whether the loop body polls cancellation
// outside function literals: a call to something named `cancelled`
// (the execContext poll), an Err() on a context.Context, or a
// same-package helper that transitively polls (per its summary).
func (pass *Pass) ctxpollHasPoll(body *ast.BlockStmt, sums *summaryTable) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "cancelled" {
				found = true
				break
			}
			if fun.Sel.Name == "Err" && namedTypeIn(pass.TypesInfo.Types[fun.X].Type, "Context", "context") {
				found = true
				break
			}
		case *ast.Ident:
			if fun.Name == "cancelled" {
				found = true
			}
		}
		if !found {
			if fn := calleeFunc(pass.TypesInfo, call); fn != nil && fn.Pkg() == pass.Pkg {
				if s := sums.summaryFor(fn); s != nil && s.polls {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
