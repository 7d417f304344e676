package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Atomicmix forbids mixing atomic and plain access to the same
// variable — the data race that silently corrupts a lock-free mirror
// such as the live inspector's view of a running query
// (obsrv.Query.edmax and its siblings) or the trees' sweep-order memo,
// whose whole point is lock-free publication. Two patterns are
// enforced, package-wide:
//
//   - a variable that is ever passed by address to a sync/atomic
//     function (atomic.LoadUint64(&x), atomic.StoreUint64(&x, v), …)
//     must not be read or written plainly anywhere else in the
//     package;
//
//   - a field of one of the typed atomic wrappers (atomic.Uint64,
//     atomic.Int64, atomic.Bool, atomic.Pointer, atomic.Value, …) may
//     only be touched through its methods or passed by address —
//     copying it, assigning it, or comparing it bypasses the
//     atomicity (and vet's copylocks only catches some of these).
//
// The check runs in every package: mixed access is never correct. A
// guaranteed-single-threaded phase (setup before any goroutine can
// observe the value) is annotated with
// `//lint:allow atomicmix <reason>`.
var Atomicmix = &Analyzer{
	Name:      "atomicmix",
	Doc:       "variables accessed via sync/atomic must never be read or written plainly",
	SkipTests: true,
	Run:       runAtomicmix,
}

// atomicTypeNames are the typed wrappers of sync/atomic.
var atomicTypeNames = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

func runAtomicmix(pass *Pass) error {
	// Pass 1: every variable passed by address to a sync/atomic
	// function anywhere in the unit.
	atomicVars := map[*types.Var]token.Pos{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicFuncCall(pass.TypesInfo, call) {
				return true
			}
			for _, arg := range call.Args {
				ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || ue.Op != token.AND {
					continue
				}
				if v := addressedVar(pass.TypesInfo, ue.X); v != nil {
					if _, seen := atomicVars[v]; !seen {
						atomicVars[v] = call.Pos()
					}
				}
			}
			return true
		})
	}
	// Pass 2: judge every use.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if !ok {
				return true
			}
			if firstAt, ok := atomicVars[v]; ok && !pass.atomicFuncOperand(id) {
				pass.Reportf(id.Pos(), "%s is accessed with sync/atomic (first at line %d) but read/written plainly here: mixed access is a data race the race detector only catches when both sides actually run; use the atomic API everywhere, or annotate a single-threaded phase with %s atomicmix <reason>",
					id.Name, pass.Fset.Position(firstAt).Line, allowPrefix)
			}
			if isAtomicWrapperType(v.Type()) && !pass.wrapperSafeUse(id) {
				pass.Reportf(id.Pos(), "sync/atomic value %s used by value: typed atomics must only be touched through their methods (Load/Store/Add/CAS) or passed by address; copying or assigning one bypasses the atomicity",
					id.Name)
			}
			return true
		})
	}
	return nil
}

// isAtomicFuncCall matches package-level sync/atomic functions
// (LoadUint64, StoreInt64, AddUint32, SwapPointer, CompareAndSwap…),
// as opposed to methods of the typed wrappers.
func isAtomicFuncCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// addressedVar resolves &expr's variable when expr is an ident or a
// field selector.
func addressedVar(info *types.Info, e ast.Expr) *types.Var {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := info.Uses[x].(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := info.Uses[x.Sel].(*types.Var)
		return v
	}
	return nil
}

// accessExpr returns the largest expression denoting the variable
// named by id: the enclosing selector when id is its field side
// (t.live for the use of live), id itself otherwise.
func (p *Pass) accessExpr(id *ast.Ident) ast.Expr {
	if sel, ok := p.Parent(id).(*ast.SelectorExpr); ok && sel.Sel == id {
		return sel
	}
	return id
}

// atomicFuncOperand reports whether id's access is the &x operand of a
// sync/atomic function call — the only sanctioned use of a variable in
// the address-taken atomic set.
func (p *Pass) atomicFuncOperand(id *ast.Ident) bool {
	n := ast.Node(p.accessExpr(id))
	for {
		parent := p.Parent(n)
		if pe, ok := parent.(*ast.ParenExpr); ok {
			n = pe
			continue
		}
		ue, ok := parent.(*ast.UnaryExpr)
		if !ok || ue.Op != token.AND {
			return false
		}
		n = ue
		for {
			if pe, ok := p.Parent(n).(*ast.ParenExpr); ok {
				n = pe
				continue
			}
			break
		}
		call, ok := p.Parent(n).(*ast.CallExpr)
		return ok && isAtomicFuncCall(p.TypesInfo, call)
	}
}

// isAtomicWrapperType matches the sync/atomic typed wrappers
// (including generic instantiations like atomic.Pointer[T]).
func isAtomicWrapperType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && atomicTypeNames[obj.Name()]
}

// wrapperSafeUse reports whether the use of a typed-atomic variable is
// one of the two safe shapes: selecting one of its methods
// (x.f.Load()) or taking its address (&x.f).
func (p *Pass) wrapperSafeUse(id *ast.Ident) bool {
	access := p.accessExpr(id)
	switch parent := p.Parent(access).(type) {
	case *ast.SelectorExpr:
		// x.f.<Sel> — safe when <Sel> is a method of the wrapper.
		if parent.X != access {
			return false
		}
		if sel, ok := p.TypesInfo.Selections[parent]; ok {
			return sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr
		}
		return false
	case *ast.UnaryExpr:
		return parent.Op == token.AND
	}
	return false
}
