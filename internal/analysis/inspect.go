package analysis

import (
	"go/ast"
	"go/types"
)

// Syntax and type helpers shared by the analyzers.

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
