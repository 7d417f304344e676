package analysis

import (
	"go/ast"
	"go/types"
)

// Syntax and guard-dominance helpers shared by the analyzers.
//
// The guard model is deliberately syntactic: an expression E is
// "guarded" at a call site when either
//
//  1. an ancestor if-statement encloses the call in its THEN branch
//     and its condition positively requires the guard (directly or as
//     a conjunct of &&), or
//  2. an earlier statement of an enclosing block is an early-exit of
//     the form `if <negated guard> { return/continue/break/panic }`,
//     which dominates everything after it in that block.
//
// This matches the two idioms the codebase uses everywhere
// (`if q.fault != nil { q.fault(op) }` and
// `if !c.tr.Enabled() { return }; c.tr.Emit(...)`) without needing a
// full dominator analysis.

// buildParents maps every node of files to its parent node.
func buildParents(files []*ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			// The file itself has no parent; mapping it to itself
			// would turn every ancestor walk into an infinite loop.
			if len(stack) > 0 {
				parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return parents
}

// Parent returns n's syntactic parent within the unit (nil for files).
func (p *Pass) Parent(n ast.Node) ast.Node {
	return p.parents[n]
}

// EnclosingFunc returns the function declaration lexically containing
// n, or nil.
func (p *Pass) EnclosingFunc(n ast.Node) *ast.FuncDecl {
	for cur := n; cur != nil; cur = p.parents[cur] {
		if fd, ok := cur.(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// posContains reports whether cond positively requires ok: the guard
// holds whenever cond is true. Conjunctions distribute; disjunctions
// and negations do not.
func posContains(cond ast.Expr, ok func(ast.Expr) bool) bool {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return posContains(e.X, ok)
	case *ast.BinaryExpr:
		if e.Op.String() == "&&" {
			return posContains(e.X, ok) || posContains(e.Y, ok)
		}
	}
	return ok(cond)
}

// negContains reports whether cond truthiness implies the guard does
// NOT hold (the early-exit form): `!guard`, `x == nil`, or any
// disjunct thereof.
func negContains(cond ast.Expr, ok func(ast.Expr) bool, notOK func(ast.Expr) bool) bool {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return negContains(e.X, ok, notOK)
	case *ast.UnaryExpr:
		if e.Op.String() == "!" {
			return posContains(e.X, ok)
		}
	case *ast.BinaryExpr:
		if e.Op.String() == "||" {
			return negContains(e.X, ok, notOK) || negContains(e.Y, ok, notOK)
		}
	}
	return notOK(cond)
}

// terminates reports whether a statement list unconditionally leaves
// the enclosing scope: its last statement is a return, a branch
// (break/continue/goto), or a call to panic.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// isGuarded reports whether node n is dominated by a guard, where ok
// recognizes a positive guard expression and notOK its negation.
func (p *Pass) isGuarded(n ast.Node, ok, notOK func(ast.Expr) bool) bool {
	// Case 1: ancestor if with a positively-guarding condition, with n
	// inside the THEN branch.
	prev := n
	for cur := p.parents[n]; cur != nil; cur = p.parents[cur] {
		if ifs, ok2 := cur.(*ast.IfStmt); ok2 {
			if prev == ifs.Body && posContains(ifs.Cond, ok) {
				return true
			}
		}
		// Case 2: an earlier sibling early-exit in any enclosing block.
		if blk, ok2 := cur.(*ast.BlockStmt); ok2 {
			for _, st := range blk.List {
				if st == prev {
					break
				}
				ifs, ok3 := st.(*ast.IfStmt)
				if !ok3 || ifs.Else != nil {
					continue
				}
				if negContains(ifs.Cond, ok, notOK) && terminates(ifs.Body.List) {
					return true
				}
			}
		}
		prev = cur
	}
	return false
}

// nilCheckGuards builds the (ok, notOK) predicate pair recognizing
// `<expr> != nil` / `<expr> == nil` for the expression rendered as s.
func nilCheckGuards(s string) (func(ast.Expr) bool, func(ast.Expr) bool) {
	match := func(e ast.Expr, op string) bool {
		be, ok := e.(*ast.BinaryExpr)
		if !ok || be.Op.String() != op {
			return false
		}
		x, y := types.ExprString(be.X), types.ExprString(be.Y)
		return (x == s && y == "nil") || (y == s && x == "nil")
	}
	return func(e ast.Expr) bool { return match(e, "!=") },
		func(e ast.Expr) bool { return match(e, "==") }
}

// typeIsFloat reports whether t's core type is a floating-point kind.
func typeIsFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// namedTypeIn reports whether t (after stripping pointers) is a named
// type with the given name declared in a package whose import path
// ends in pkgBase.
func namedTypeIn(t types.Type, name, pkgBase string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && scopeBase(obj.Pkg().Path()) == pkgBase
}

// calleeFunc resolves the called function or method object of call,
// or nil for calls through function values, builtins, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}
