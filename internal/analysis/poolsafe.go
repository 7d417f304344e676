package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Poolsafe enforces the sync.Pool ownership rules of docs/memory.md
// over the hybridq and extsort pool helpers: a pooled object is owned
// by exactly one operation between get and put.
//
// Two rules, checked per function with a linear, aliasing-aware walk:
//
//   - use-after-put: once an object (or any alias of it — a slice of
//     its slab, a field selector, a re-binding) has been handed to a
//     put helper or sync.Pool.Put, no later statement of the function
//     may touch it. Putting it a second time is the same bug (two
//     owners, one slab) and is reported as a double put.
//
//   - escape-then-put: an object obtained from a get helper (or
//     pool.Get) whose backing memory escapes the function — stored
//     into a field or element of some other structure, sent on a
//     channel, or captured by a goroutine — must not be put: the next
//     owner would overwrite memory the escapee still sees.
//
// The walk is conservative in the directions that matter: aliases are
// tracked through plain assignments, slicing, field selection, and
// append's first argument; branch-local puts in terminating blocks
// (error paths that put-and-return) do not poison the fallthrough
// path; loop-local objects are released at the end of the loop body.
// What the walk cannot prove it does not report — the -race stress
// tests in pool_test.go remain the runtime backstop. Put helpers are
// recognized through the call-graph summaries (summary.go), so
// wrappers and the holder indirection of putPageBuf count.
var Poolsafe = &Analyzer{
	Name:      "poolsafe",
	Doc:       "sync.Pool ownership: no use after put, no put of escaped memory (docs/memory.md)",
	SkipTests: true,
	Run:       runPoolsafe,
}

// poolsafeScopes are the package scope bases with pooled hot paths.
var poolsafeScopes = map[string]bool{"hybridq": true, "extsort": true}

func runPoolsafe(pass *Pass) error {
	if exampleTree(pass.PkgPath) || !poolsafeScopes[scopeBase(pass.PkgPath)] {
		return nil
	}
	sums := pass.summaries()
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			st := &poolWalk{
				pass:   pass,
				sums:   sums,
				alias:  map[*types.Var]*types.Var{},
				poison: map[*types.Var]token.Pos{},
				origin: map[*types.Var]bool{},
				escape: map[*types.Var]token.Pos{},
			}
			st.walkStmts(fd.Body.List)
		}
	}
	return nil
}

// poolWalk is the per-function state of the ownership walk. State is
// threaded through statements in source order; branches share it
// (no join), except that terminating branches — error paths that put
// and return — have their effects rolled back for the fallthrough.
type poolWalk struct {
	pass *Pass
	sums *summaryTable
	// alias maps a variable to the representative root of the memory
	// it aliases (union by assignment; roots map to themselves
	// implicitly).
	alias map[*types.Var]*types.Var
	// poison maps a root to the position of the put that released it.
	poison map[*types.Var]token.Pos
	// origin marks roots obtained from a pool get in this function.
	origin map[*types.Var]bool
	// escape maps an origin root to the first position where its
	// backing memory escaped the function.
	escape map[*types.Var]token.Pos
}

// root resolves v through the alias chain.
func (w *poolWalk) root(v *types.Var) *types.Var {
	for i := 0; i < 32; i++ {
		next, ok := w.alias[v]
		if !ok || next == v {
			return v
		}
		v = next
	}
	return v
}

// rootOf returns the root variable whose memory e denotes, or nil.
// Selectors, indexing, slicing, dereference, and address-of all keep
// the base variable's identity; append aliases its first argument.
func (w *poolWalk) rootOf(e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
				e = x.Args[0]
				continue
			}
			return nil
		case *ast.Ident:
			if v, ok := w.pass.TypesInfo.Uses[x].(*types.Var); ok {
				return w.root(v)
			}
			if v, ok := w.pass.TypesInfo.Defs[x].(*types.Var); ok {
				return w.root(v)
			}
			return nil
		default:
			return nil
		}
	}
}

// snapshot captures poison/escape for terminating-branch rollback.
func (w *poolWalk) snapshot() (map[*types.Var]token.Pos, map[*types.Var]token.Pos) {
	p := make(map[*types.Var]token.Pos, len(w.poison))
	for k, v := range w.poison {
		p[k] = v
	}
	e := make(map[*types.Var]token.Pos, len(w.escape))
	for k, v := range w.escape {
		e[k] = v
	}
	return p, e
}

// walkStmts processes a statement list in source order.
func (w *poolWalk) walkStmts(list []ast.Stmt) {
	for _, s := range list {
		w.walkStmt(s)
	}
}

func (w *poolWalk) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		w.walkStmts(st.List)
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt)
	case *ast.IfStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.checkUses(st.Cond)
		w.walkBranch(st.Body)
		switch e := st.Else.(type) {
		case *ast.BlockStmt:
			w.walkBranch(e)
		case *ast.IfStmt:
			w.walkStmt(e)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		if st.Cond != nil {
			w.checkUses(st.Cond)
		}
		w.walkStmts(st.Body.List)
		if st.Post != nil {
			w.walkStmt(st.Post)
		}
		w.releaseLoopLocals(st)
	case *ast.RangeStmt:
		w.checkUses(st.X)
		w.walkStmts(st.Body.List)
		w.releaseLoopLocals(st)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		if st.Tag != nil {
			w.checkUses(st.Tag)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.checkUses(e)
				}
				w.walkCaseBody(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkCaseBody(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.walkStmt(cc.Comm)
				}
				w.walkCaseBody(cc.Body)
			}
		}
	case *ast.AssignStmt:
		w.assign(st)
	case *ast.SendStmt:
		w.checkUses(st)
		if r := w.rootOf(st.Value); r != nil && w.origin[r] {
			w.recordEscape(r, st.Pos())
		}
	case *ast.GoStmt:
		// A goroutine capturing a pooled object retains it beyond
		// this operation's ownership window.
		for _, arg := range st.Call.Args {
			if r := w.rootOf(arg); r != nil && w.origin[r] {
				w.recordEscape(r, st.Pos())
			}
		}
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if v, ok := w.pass.TypesInfo.Uses[id].(*types.Var); ok {
						if r := w.root(v); w.origin[r] {
							w.recordEscape(r, st.Pos())
						}
					}
				}
				return true
			})
		}
	case *ast.DeferStmt:
		// Deferred puts run at function exit, after every later
		// statement: rule A does not apply. Deliberately skipped.
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							w.checkUses(vs.Values[i])
							w.bind(name, vs.Values[i])
						}
					}
				}
			}
		}
	default:
		// A put call's arguments are ownership transfers, not uses:
		// skip them here so processPuts reports a second put as a
		// double put rather than a use-after-put.
		w.checkUsesSkip(s, w.putCallsIn(s))
		w.processPuts(s)
	}
}

// walkBranch walks an if/else body; when the branch terminates
// (returns, breaks, panics — the put-and-bail error path), its poison
// and escape effects are rolled back so the fallthrough path is
// judged on its own.
func (w *poolWalk) walkBranch(body *ast.BlockStmt) {
	if terminates(body.List) {
		p, e := w.snapshot()
		w.walkStmts(body.List)
		w.poison, w.escape = p, e
		return
	}
	w.walkStmts(body.List)
}

func (w *poolWalk) walkCaseBody(body []ast.Stmt) {
	if terminates(body) {
		p, e := w.snapshot()
		w.walkStmts(body)
		w.poison, w.escape = p, e
		return
	}
	w.walkStmts(body)
}

// releaseLoopLocals drops poison/escape/origin state for variables
// declared inside the loop: each iteration re-binds them, so a put at
// the bottom of the body does not poison the next iteration's object.
func (w *poolWalk) releaseLoopLocals(loop ast.Node) {
	for v := range w.poison {
		if v.Pos() >= loop.Pos() && v.Pos() < loop.End() {
			delete(w.poison, v)
		}
	}
	for v := range w.escape {
		if v.Pos() >= loop.Pos() && v.Pos() < loop.End() {
			delete(w.escape, v)
		}
	}
	for v := range w.origin {
		if v.Pos() >= loop.Pos() && v.Pos() < loop.End() {
			delete(w.origin, v)
		}
	}
}

// assign processes one assignment: report poisoned uses on the RHS,
// update aliases and origins for plain-ident LHS, record escapes for
// stores of pooled memory into other structures, then process puts.
func (w *poolWalk) assign(st *ast.AssignStmt) {
	skip := w.putCallsIn(st)
	for _, rhs := range st.Rhs {
		w.checkUsesSkip(rhs, skip)
	}
	for _, lhs := range st.Lhs {
		if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
			// Writing through x.f, x[i], *x is a use of x's memory.
			w.checkUsesSkip(lhs, skip)
		}
	}
	// Escape: a pooled object stored into a different structure.
	if len(st.Lhs) == len(st.Rhs) {
		for i, lhs := range st.Lhs {
			switch ast.Unparen(lhs).(type) {
			case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
				lr := w.rootOf(lhs)
				rr := w.rootOf(st.Rhs[i])
				if rr != nil && w.origin[rr] && lr != rr {
					w.recordEscape(rr, st.Pos())
				}
			}
		}
	}
	// Alias/origin bookkeeping for plain-ident LHS.
	if len(st.Lhs) == len(st.Rhs) {
		for i, lhs := range st.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				w.bind(id, st.Rhs[i])
			}
		}
	} else if len(st.Lhs) == 2 && len(st.Rhs) == 1 {
		// Comma-ok form (h, ok := pool.Get().(*T)): the first name
		// binds to the value — the pool-get origin idiom.
		if id, ok := ast.Unparen(st.Lhs[0]).(*ast.Ident); ok {
			w.bind(id, st.Rhs[0])
		}
		if id, ok := ast.Unparen(st.Lhs[1]).(*ast.Ident); ok {
			w.bindFresh(id)
		}
	} else {
		// Multi-value form (v, err := f()): fresh bindings.
		for _, lhs := range st.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				w.bindFresh(id)
			}
		}
	}
	w.processPuts(st)
}

// bind points id at the memory rhs denotes, clearing any stale state
// from a previous binding.
func (w *poolWalk) bind(id *ast.Ident, rhs ast.Expr) {
	v := w.objOf(id)
	if v == nil {
		return
	}
	delete(w.poison, v)
	delete(w.alias, v)
	// A number or bool read out of a pooled object is a copy: it cannot
	// alias the slab, so keeping it (or storing it elsewhere) past the
	// put is fine.
	if b, ok := v.Type().Underlying().(*types.Basic); ok && b.Info()&(types.IsNumeric|types.IsBoolean) != 0 {
		return
	}
	// Alias only memory of a pool-origin object, and never through a
	// pointer dereference: `b := *h` copies the value out of the holder
	// (the putPageBuf holder idiom nils the slot before putting it
	// back), and `seg := q.segs[i]` pulls a child out of a container —
	// putting the child must not implicate the container.
	if _, isDeref := ast.Unparen(rhs).(*ast.StarExpr); !isDeref {
		if r := w.rootOf(rhs); r != nil && r != v && w.origin[r] {
			w.alias[v] = r
			return
		}
	}
	// A fresh root: is it a pool get?
	if call, ok := ast.Unparen(stripAssert(rhs)).(*ast.CallExpr); ok {
		if isPoolMethod(call, w.pass.TypesInfo, "Get") {
			w.origin[v] = true
			delete(w.escape, v)
			return
		}
		if fn := calleeFunc(w.pass.TypesInfo, call); fn != nil && fn.Pkg() == w.pass.Pkg {
			if s := w.sums.summaryFor(fn); s != nil && s.getsPool {
				w.origin[v] = true
				delete(w.escape, v)
			}
		}
	}
}

func (w *poolWalk) bindFresh(id *ast.Ident) {
	if v := w.objOf(id); v != nil {
		delete(w.poison, v)
		delete(w.alias, v)
	}
}

func (w *poolWalk) objOf(id *ast.Ident) *types.Var {
	if v, ok := w.pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := w.pass.TypesInfo.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// stripAssert unwraps a type assertion (pool.Get().(*pairBuf)).
func stripAssert(e ast.Expr) ast.Expr {
	if ta, ok := ast.Unparen(e).(*ast.TypeAssertExpr); ok {
		return ta.X
	}
	return e
}

// checkUses reports every reference to poisoned memory inside n.
func (w *poolWalk) checkUses(n ast.Node) { w.checkUsesSkip(n, nil) }

// checkUsesSkip is checkUses with a set of put calls whose subtrees
// are ownership transfers and therefore not uses.
func (w *poolWalk) checkUsesSkip(n ast.Node, skip map[ast.Node]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if skip[m] {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		r := w.root(v)
		if putPos, poisoned := w.poison[r]; poisoned {
			w.pass.Reportf(id.Pos(), "use of %s after it was returned to the pool at line %d: a pooled object is owned by exactly one operation between get and put (docs/memory.md); copy the data out before the put, or annotate with %s poolsafe <reason>",
				id.Name, w.pass.Fset.Position(putPos).Line, allowPrefix)
			// Report each released object once per function.
			delete(w.poison, r)
		}
		return true
	})
}

// processPuts finds put calls in n (function literals excluded) and
// applies the ownership transitions: double-put and escape-then-put
// checks, then poisoning.
func (w *poolWalk) processPuts(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range w.putArgsOf(call) {
			r := w.rootOf(arg)
			if r == nil {
				continue
			}
			if first, ok := w.poison[r]; ok {
				w.pass.Reportf(call.Pos(), "%s is returned to the pool twice (first at line %d): a double put gives the pool two owners for one object",
					types.ExprString(arg), w.pass.Fset.Position(first).Line)
				continue
			}
			if escPos, ok := w.escape[r]; ok && escPos < call.Pos() {
				w.pass.Reportf(call.Pos(), "%s is returned to the pool but its backing memory escaped at line %d: the next owner will overwrite memory the escapee still sees; copy instead of aliasing, or annotate with %s poolsafe <reason>",
					types.ExprString(arg), w.pass.Fset.Position(escPos).Line, allowPrefix)
			}
			w.poison[r] = call.Pos()
		}
		return true
	})
}

// putArgsOf returns the expressions call hands to a pool put —
// directly (sync.Pool.Put), or through a same-package put helper's
// put parameters/receiver. Empty when call is not a put.
func (w *poolWalk) putArgsOf(call *ast.CallExpr) []ast.Expr {
	if isPoolMethod(call, w.pass.TypesInfo, "Put") {
		return call.Args
	}
	fn := calleeFunc(w.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() != w.pass.Pkg {
		return nil
	}
	s := w.sums.summaryFor(fn)
	if s == nil || len(s.putParams) == 0 {
		return nil
	}
	var args []ast.Expr
	for j, arg := range call.Args {
		if s.putParams[j] {
			args = append(args, arg)
		}
	}
	if s.putParams[-1] {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			args = append(args, sel.X)
		}
	}
	return args
}

// putCallsIn collects the put calls inside n (function literals
// excluded) so checkUsesSkip can treat their subtrees as ownership
// transfers rather than uses.
func (w *poolWalk) putCallsIn(n ast.Node) map[ast.Node]bool {
	var skip map[ast.Node]bool
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok && len(w.putArgsOf(call)) > 0 {
			if skip == nil {
				skip = map[ast.Node]bool{}
			}
			skip[call] = true
		}
		return true
	})
	return skip
}

// recordEscape stores the first escape position for a root.
func (w *poolWalk) recordEscape(r *types.Var, pos token.Pos) {
	if _, ok := w.escape[r]; !ok {
		w.escape[r] = pos
	}
}
