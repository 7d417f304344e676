package analysis

import (
	"go/ast"
	"go/types"
)

// Lockheld forbids blocking work while an obsrv or serving mutex is
// held: disk I/O through storage/extsort (or os), channel sends,
// receives and selects, sync blocking calls (WaitGroup.Wait, Cond.Wait,
// time.Sleep), and writing an HTTP response (ResponseWriter.Write and
// WriteHeader, http.Error, http.NotFound, json.Encoder.Encode). The
// registry lock sits on every query's begin and end and on every
// scrape, the cursor-table lock on every cursor request; blocking under
// one stalls them all, and a response written under one hands the stall
// to the slowest client. Handlers copy state out under the lock and
// render after releasing it.
//
// Lock acquisition is `x.mu.Lock()` / `x.mu.RLock()` on a
// sync.(RW)Mutex — held until the matching Unlock in the same block,
// or, with `defer x.mu.Unlock()`, until function end.
//
// Calls out of a locked region are resolved through the per-function
// call-graph summaries (summary.go): a same-package callee that may
// block — at any depth of same-package calls — is reported at the
// caller's call site, with the witness chain in the message, so
// `get → render → json.Encoder.Encode` is caught without whole-program
// analysis. The summaries are conservative (may-effects, unreachable
// paths included); deliberate blocking under a single-owner lock is
// annotated at the locked call site with
// `//lint:allow lockheld <reason>`.
var Lockheld = &Analyzer{
	Name:      "lockheld",
	Doc:       "no I/O, channel, sync blocking or response-writing operations while an obsrv/serving mutex is held",
	SkipTests: true,
	Run:       runLockheld,
}

// lockheldScopes are the package scope bases the analyzer runs in.
var lockheldScopes = map[string]bool{"obsrv": true, "serving": true}

// lockheldIOPkgs are packages whose calls count as I/O under a lock.
var lockheldIOPkgs = map[string]bool{"storage": true, "extsort": true, "os": true}

// lockheldDoes words each effect for a finding: "<callee> <does> while
// a <pkg> mutex is held".
var lockheldDoes = [numEffects]string{
	effIO:       "does disk I/O",
	effChanSend: "performs a channel send",
	effChanRecv: "performs a channel receive",
	effSelect:   "runs a select",
	effSyncWait: "waits on other goroutines (blocking sync Wait)",
	effSleep:    "sleeps",
	effRender:   "writes an HTTP response",
}

// lockheldAdvice closes every call finding.
const lockheldAdvice = "everything behind the lock stalls with it; copy what is needed under the lock and do this after releasing it, or annotate a single-owner design with " + allowPrefix + " lockheld <reason>"

func runLockheld(pass *Pass) error {
	if exampleTree(pass.PkgPath) || !lockheldScopes[scopeBase(pass.PkgPath)] {
		return nil
	}
	sums := pass.summaries()
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			forEachLockedStmt(pass, fd, func(s ast.Stmt) {
				pass.lockheldViolations(s, fd, sums)
			})
		}
	}
	return nil
}

// forEachLockedStmt walks fd's body tracking the mutex-held state and
// invokes check on every statement that executes with a lock held.
func forEachLockedStmt(pass *Pass, fd *ast.FuncDecl, check func(ast.Stmt)) {
	var checkBlock func(list []ast.Stmt, locked bool)
	checkBlock = func(list []ast.Stmt, locked bool) {
		lockExprs := map[string]bool{}
		for _, s := range list {
			switch st := s.(type) {
			case *ast.DeferStmt:
				// defer mu.Unlock() does not end the region: the lock
				// is held until function exit.
				continue
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					if recv, kind := mutexCall(pass.TypesInfo, call); kind != "" {
						switch kind {
						case "Lock", "RLock":
							locked = true
							lockExprs[recv] = true
							continue
						case "Unlock", "RUnlock":
							if lockExprs[recv] {
								delete(lockExprs, recv)
								if len(lockExprs) == 0 {
									locked = false
								}
								continue
							}
						}
					}
				}
			}
			if locked {
				check(s)
			}
			// Nested blocks inherit the locked state through check's
			// recursive inspection, except that explicit sub-blocks with
			// their own lock/unlock discipline are handled by recursion.
			if !locked {
				switch st := s.(type) {
				case *ast.BlockStmt:
					checkBlock(st.List, false)
				case *ast.IfStmt:
					checkBlock(st.Body.List, false)
					if blk, ok := st.Else.(*ast.BlockStmt); ok {
						checkBlock(blk.List, false)
					}
				case *ast.ForStmt:
					checkBlock(st.Body.List, false)
				case *ast.RangeStmt:
					checkBlock(st.Body.List, false)
				case *ast.SwitchStmt:
					for _, c := range st.Body.List {
						if cc, ok := c.(*ast.CaseClause); ok {
							checkBlock(cc.Body, false)
						}
					}
				}
			}
		}
	}
	checkBlock(fd.Body.List, false)
}

// mutexCall matches a call to a method of sync.Mutex/RWMutex and
// returns the receiver expression string and the method name.
func mutexCall(info *types.Info, call *ast.CallExpr) (recv, kind string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "RLock" && name != "Unlock" && name != "RUnlock" {
		return "", ""
	}
	t := info.Types[sel.X].Type
	if namedTypeIn(t, "Mutex", "sync") || namedTypeIn(t, "RWMutex", "sync") {
		return types.ExprString(sel.X), name
	}
	return "", ""
}

// lockheldViolations reports blocking operations reachable from n:
// direct channel/select syntax, direct blocking calls, and —
// through the call-graph summaries — same-package callees that may
// block at any depth. Function literals are excluded (their bodies
// run later).
func (pass *Pass) lockheldViolations(n ast.Node, fd *ast.FuncDecl, sums *summaryTable) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch e := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			pass.Reportf(e.Pos(), "channel send while the %s mutex is held: a blocked receiver stalls everything behind the lock; move the send outside the locked region", scopeBase(pass.PkgPath))
		case *ast.UnaryExpr:
			if e.Op.String() == "<-" {
				pass.Reportf(e.Pos(), "channel receive while the %s mutex is held: move the receive outside the locked region", scopeBase(pass.PkgPath))
			}
		case *ast.SelectStmt:
			pass.Reportf(e.Pos(), "select while the %s mutex is held: move channel operations outside the locked region", scopeBase(pass.PkgPath))
		case *ast.CallExpr:
			pass.lockheldCall(e, fd, sums)
		}
		return true
	})
}

// lockheldCall classifies one call inside a locked region: a direct
// blocking or rendering primitive, or a same-package callee whose
// summary says it may reach one.
func (pass *Pass) lockheldCall(call *ast.CallExpr, fd *ast.FuncDecl, sums *summaryTable) {
	lockPkg := scopeBase(pass.PkgPath)
	if k, what, ok := callEffect(pass.TypesInfo, call); ok {
		pass.Reportf(call.Pos(), "%s %s while the %s mutex is held: %s", what, lockheldDoes[k], lockPkg, lockheldAdvice)
		return
	}
	// Same-package callee: consult its call-graph summary. Skip
	// self-recursion — the function's own region is checked directly.
	fn := calleeFunc(pass.TypesInfo, call)
	s := sums.summaryFor(fn)
	if s == nil || sums.declFor(fn) == fd {
		return
	}
	for k, witness := range s.effects {
		if witness != "" {
			pass.Reportf(call.Pos(), "call to %s %s (%s) while the %s mutex is held: %s", fn.Name(), lockheldDoes[k], witness, lockPkg, lockheldAdvice)
			return
		}
	}
}
