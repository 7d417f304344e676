package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Lockheld forbids blocking work while a hybridq or obsrv mutex is
// held: disk I/O through storage/extsort (or os), channel sends,
// receives and selects, and sync blocking calls (WaitGroup.Wait,
// Cond.Wait, time.Sleep). The registry lock sits on every query's
// begin and end and on every scrape; blocking under it stalls them
// all. (The hybrid queue is single-goroutine and holds no lock today;
// its scope entry now serves only the golden fixture, which models a
// locked queue.)
//
// Lock acquisition is `x.mu.Lock()` / `x.mu.RLock()` on a
// sync.(RW)Mutex — held until the matching Unlock in the same block,
// or, with `defer x.mu.Unlock()`, until function end.
//
// Calls out of a locked region are resolved through the per-function
// call-graph summaries (summary.go): a same-package callee that may
// block — at any depth of same-package calls — is reported at the
// caller's call site, with the witness chain in the message, so
// `Push → spill → appendToSegment → storage.WritePage` is caught
// without whole-program analysis. The summaries are conservative
// (may-effects, unreachable paths included); deliberate I/O under a
// single-owner lock is annotated at the locked call site with
// `//lint:allow lockheld <reason>`.
var Lockheld = &Analyzer{
	Name:      "lockheld",
	Doc:       "no I/O, channel, or sync blocking operations while a hybridq/obsrv mutex is held",
	SkipTests: true,
	Run:       runLockheld,
}

// lockheldScopes are the package scope bases the analyzer runs in.
var lockheldScopes = map[string]bool{"hybridq": true, "obsrv": true}

// lockheldIOPkgs are packages whose calls count as I/O under a lock.
var lockheldIOPkgs = map[string]bool{"storage": true, "extsort": true, "os": true}

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
// Shared by lockheld and servecontract (render-under-lock).
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
			pass.Reportf(e.Pos(), "channel send while a %s mutex is held: a blocked receiver deadlocks every queue operation; move the send outside the locked region", scopeBase(pass.PkgPath))
		case *ast.UnaryExpr:
			if e.Op.String() == "<-" {
				pass.Reportf(e.Pos(), "channel receive while a %s mutex is held: move the receive outside the locked region", scopeBase(pass.PkgPath))
			}
		case *ast.SelectStmt:
			pass.Reportf(e.Pos(), "select while a %s mutex is held: move channel operations outside the locked region", scopeBase(pass.PkgPath))
		case *ast.CallExpr:
			pass.lockheldCall(e, fd, sums)
		}
		return true
	})
}

// lockheldCall classifies one call inside a locked region: a direct
// blocking primitive, or a same-package callee whose summary says it
// may block.
func (pass *Pass) lockheldCall(call *ast.CallExpr, fd *ast.FuncDecl, sums *summaryTable) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	base := scopeBase(fn.Pkg().Path())
	lockPkg := scopeBase(pass.PkgPath)
	switch {
	case lockheldIOPkgs[base]:
		pass.Reportf(call.Pos(), "%s.%s does disk I/O while the %s mutex is held: a slow or faulted page operation stalls every caller of the queue; stage the I/O outside the lock or annotate the single-owner design with %s lockheld <reason>",
			base, fn.Name(), lockPkg, allowPrefix)
	case base == "sync" && fn.Name() == "Wait":
		pass.Reportf(call.Pos(), "blocking sync Wait while the %s mutex is held: waiting for other goroutines under the lock deadlocks when they need it", lockPkg)
	case base == "time" && fn.Name() == "Sleep":
		pass.Reportf(call.Pos(), "time.Sleep while the %s mutex is held", lockPkg)
	case fn.Pkg() == pass.Pkg:
		// Same-package callee: consult its call-graph summary. Skip
		// self-recursion — the function's own region is checked
		// directly.
		if sums.declFor(fn) == fd {
			return
		}
		s := sums.summaryFor(fn)
		if s == nil {
			return
		}
		name := fn.Name()
		switch {
		case s.effects[effIO] != "":
			pass.Reportf(call.Pos(), "call to %s does disk I/O (%s) while the %s mutex is held; stage the I/O outside the lock or annotate the single-owner design with %s lockheld <reason>",
				name, s.effects[effIO], lockPkg, allowPrefix)
		case s.effects[effChanSend] != "":
			pass.Reportf(call.Pos(), "call to %s performs a channel send while the %s mutex is held%s", name, lockPkg, viaClause(s.effects[effChanSend]))
		case s.effects[effChanRecv] != "":
			pass.Reportf(call.Pos(), "call to %s performs a channel receive while the %s mutex is held%s", name, lockPkg, viaClause(s.effects[effChanRecv]))
		case s.effects[effSelect] != "":
			pass.Reportf(call.Pos(), "call to %s runs a select while the %s mutex is held%s", name, lockPkg, viaClause(s.effects[effSelect]))
		case s.effects[effSyncWait] != "":
			pass.Reportf(call.Pos(), "call to %s waits on other goroutines (blocking sync Wait) while the %s mutex is held%s", name, lockPkg, viaClause(s.effects[effSyncWait]))
		case s.effects[effSleep] != "":
			pass.Reportf(call.Pos(), "call to %s sleeps (time.Sleep) while the %s mutex is held%s", name, lockPkg, viaClause(s.effects[effSleep]))
		}
	}
}

// viaClause renders a witness path as a " (via …)" suffix when the
// effect is reached through intermediate callees, and as nothing when
// the callee performs it directly.
func viaClause(witness string) string {
	if strings.Contains(witness, "→") {
		return " (via " + witness + ")"
	}
	return ""
}
