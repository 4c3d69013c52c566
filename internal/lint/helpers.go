package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Shared AST/type predicates used by more than one analyzer.

// isNamedType reports whether t (after pointer stripping) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool { return isNamedType(t, "context", "Context") }

// isSyncPool reports whether t is sync.Pool or *sync.Pool.
func isSyncPool(t types.Type) bool { return isNamedType(t, "sync", "Pool") }

// isMap reports whether t's core type is a map.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// calleeObject resolves the function or method object a call invokes,
// or nil for calls through function values, builtins and conversions.
func calleeObject(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// rootObject resolves an lvalue-ish expression (x, x.f, x[i], *x) to the
// object of its leftmost identifier, the variable whose contents the
// expression reads or writes.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside [lo, hi].
func declaredWithin(obj types.Object, lo, hi token.Pos) bool {
	return obj != nil && obj.Pos() != token.NoPos && obj.Pos() >= lo && obj.Pos() <= hi
}

// funcDocHasMarker reports whether fn's doc comment contains a line whose
// comment text begins with marker (e.g. "//fastsc:hotpath").
func funcDocHasMarker(fn *ast.FuncDecl, marker string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if text := strings.TrimSpace(c.Text); text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}

// forEachFuncDecl invokes f for every function declaration with a body.
func forEachFuncDecl(files []*ast.File, f func(*ast.FuncDecl)) {
	for _, file := range files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				f(fn)
			}
		}
	}
}

// inspectStack walks the trees rooted at files, maintaining the ancestor
// stack (innermost last, not including n) for each visited node n.
func inspectStack(files []*ast.File, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			visit(n, stack)
			stack = append(stack, n)
			return true
		})
	}
}
