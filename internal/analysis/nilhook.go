package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Nilhook enforces the zero-alloc hook discipline that
// TestTraceOffNoAllocs pins at runtime: every optional observability
// or fault hook is either nil-guarded at the call site or a nil-safe
// no-op at the provider. Three rules:
//
//  1. Calls through function-valued hook fields (Config.FaultHook /
//     Options.QueueFaultHook, stored as the hybridq `fault` field)
//     must be dominated by an `if <field> != nil` guard.
//  2. Calls to (*trace.Tracer).Emit outside package trace must be
//     dominated by an Enabled()/!= nil guard, so the off path never
//     constructs an Event or touches the tracer.
//  3. The hook provider types themselves (trace.Tracer,
//     obsrv.Registry, obsrv.Query) must keep every exported
//     pointer-receiver method a nil-receiver no-op: the first
//     statement bails on `recv == nil`, or the receiver is only used
//     in nil comparisons and calls to other nil-safe methods
//     (one level deep).
var Nilhook = &Analyzer{
	Name:      "nilhook",
	Doc:       "optional hook calls must be nil-guarded or provider-side nil-safe no-ops",
	SkipTests: true,
	Run:       runNilhook,
}

// hookFieldNames are the function-valued hook fields rule 1 covers.
var hookFieldNames = map[string]bool{
	"fault":          true, // hybridq.Queue's stored Config.FaultHook
	"FaultHook":      true, // hybridq.Config
	"QueueFaultHook": true, // join.Options / distjoin.Options
}

// nilhookProviders maps package scope base to the provider type names
// whose exported methods rule 3 requires to be nil-safe.
var nilhookProviders = map[string][]string{
	"trace": {"Tracer"},
	"obsrv": {"Registry", "Query"},
}

func runNilhook(pass *Pass) error {
	runNilhookCalls(pass)
	runNilhookProviders(pass)
	return nil
}

// runNilhookCalls applies rules 1 and 2.
func runNilhookCalls(pass *Pass) {
	info := pass.TypesInfo
	inTrace := scopeBase(pass.PkgPath) == "trace"
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Rule 1: calls through hook fields.
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal && hookFieldNames[sel.Sel.Name] {
				if _, isFunc := s.Type().Underlying().(*types.Signature); isFunc {
					expr := types.ExprString(sel)
					posOK, negOK := nilCheckGuards(expr)
					if !pass.isGuarded(call, posOK, negOK) {
						pass.Reportf(call.Pos(), "call through hook field %s without a nil guard: the hook is optional and nil on the zero-alloc off path; wrap it in `if %s != nil { ... }`", expr, expr)
					}
				}
				return true
			}
			// Rule 2: tracer emission outside the provider package.
			if inTrace {
				return true
			}
			if sel.Sel.Name != "Emit" {
				return true
			}
			fn, _ := info.Uses[sel.Sel].(*types.Func)
			if fn == nil {
				return true
			}
			recvType := info.Types[sel.X].Type
			if !namedTypeIn(recvType, "Tracer", "trace") {
				return true
			}
			recvStr := types.ExprString(sel.X)
			posNil, negNil := nilCheckGuards(recvStr)
			posOK := func(e ast.Expr) bool {
				return posNil(e) || isEnabledCall(e, recvStr)
			}
			if !pass.isGuarded(call, posOK, negNil) {
				pass.Reportf(call.Pos(), "%s.Emit without an %s.Enabled() guard: the off path must not build events or touch the tracer (zero-alloc discipline pinned by TestTraceOffNoAllocs)", recvStr, recvStr)
			}
			return true
		})
	}
}

// isEnabledCall matches `<recv>.Enabled()` for the receiver rendered
// as recvStr.
func isEnabledCall(e ast.Expr, recvStr string) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Enabled" && types.ExprString(sel.X) == recvStr
}

// runNilhookProviders applies rule 3.
func runNilhookProviders(pass *Pass) {
	typeNames := nilhookProviders[scopeBase(pass.PkgPath)]
	if len(typeNames) == 0 {
		return
	}
	wanted := make(map[string]bool, len(typeNames))
	for _, n := range typeNames {
		wanted[n] = true
	}
	// Collect the provider types' pointer-receiver methods.
	methods := make(map[string]map[string]*ast.FuncDecl) // type -> method -> decl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			tn := recvTypeName(fd)
			if !wanted[tn] {
				continue
			}
			if methods[tn] == nil {
				methods[tn] = make(map[string]*ast.FuncDecl)
			}
			methods[tn][fd.Name.Name] = fd
		}
	}
	for tn, ms := range methods {
		for name, fd := range ms {
			if !ast.IsExported(name) {
				continue
			}
			if !pass.methodNilSafe(fd, ms, 1) {
				pass.Reportf(fd.Name.Pos(), "exported method (*%s).%s is not a nil-receiver no-op: callers rely on nil hooks being safe (guard with `if %s == nil { return ... }` as the first statement)",
					tn, name, fd.Recv.List[0].Names[0].Name)
			}
		}
	}
}

// recvTypeName returns the base type name of a method's receiver
// ("" when unnamed or not a pointer receiver).
func recvTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	star, ok := t.(*ast.StarExpr)
	if !ok {
		return ""
	}
	switch e := ast.Unparen(star.X).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		if id, ok := e.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// methodNilSafe reports whether fd is safe to call on a nil receiver:
// its first statement is a nil-receiver bail-out, or every receiver
// use is a nil comparison or a call to another nil-safe method of the
// same type (recursing depth levels).
func (pass *Pass) methodNilSafe(fd *ast.FuncDecl, siblings map[string]*ast.FuncDecl, depth int) bool {
	if fd.Body == nil || len(fd.Recv.List[0].Names) == 0 {
		return false
	}
	recvName := fd.Recv.List[0].Names[0].Name
	if firstStmtNilBailout(fd.Body.List, recvName) {
		return true
	}
	// Otherwise every use of the receiver must itself be nil-safe.
	recvObj := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
	if recvObj == nil {
		return false
	}
	safe := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if !safe {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != recvObj {
			return true
		}
		parent := pass.Parent(id)
		// recv == nil / recv != nil (including `return t != nil`).
		if be, ok := parent.(*ast.BinaryExpr); ok && (be.Op == token.EQL || be.Op == token.NEQ) {
			if types.ExprString(be.X) == "nil" || types.ExprString(be.Y) == "nil" {
				return true
			}
		}
		// recv.M(...) where M is a nil-safe sibling.
		if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id {
			if call, ok := pass.Parent(sel).(*ast.CallExpr); ok && call.Fun == sel {
				if sib := siblings[sel.Sel.Name]; sib != nil && depth > 0 &&
					pass.methodNilSafe(sib, siblings, depth-1) {
					return true
				}
			}
		}
		safe = false
		return false
	})
	return safe
}

// firstStmtNilBailout reports whether the statement list opens with
// `if recv == nil [|| ...] { return/panic }`.
func firstStmtNilBailout(list []ast.Stmt, recvName string) bool {
	if len(list) == 0 {
		return false
	}
	ifs, ok := list[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil || !terminates(ifs.Body.List) {
		return false
	}
	found := false
	var scan func(e ast.Expr)
	scan = func(e ast.Expr) {
		switch be := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			if be.Op == token.LOR {
				scan(be.X)
				scan(be.Y)
				return
			}
			if be.Op == token.EQL {
				x, y := types.ExprString(be.X), types.ExprString(be.Y)
				if (x == recvName && y == "nil") || (y == recvName && x == "nil") {
					found = true
				}
			}
		}
	}
	scan(ifs.Cond)
	return found
}
