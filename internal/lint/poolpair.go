package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolPairAnalyzer pairs sync.Pool acquisitions with their releases: a
// value bound by `x := pool.Get()` (with or without a type assertion)
// must reach a `pool.Put(x)` or an `x.Release()`/`x.release()` in the
// same function — deferred, or ordered so that no return statement can
// exit the function between the Get and the first release (the classic
// pooled-scratch leak is an early error return). Acquisitions that
// intentionally escape — a constructor that hands the pooled value to its
// caller, whose own contract pairs it with a Release — carry the standard
// suppression with an "escapes:" reason, which the driver counts.
//
// The analysis is intraprocedural and tracks only values bound to plain
// identifiers; it cannot follow a value released by another function.
var PoolPairAnalyzer = &Analyzer{
	Name: "poolpair",
	Doc: "sync.Pool Get must be paired with Put/Release on every path " +
		"or carry an //fastsc:ignore poolpair -- escapes: reason",
	Run: runPoolPair,
}

var releaseNames = map[string]bool{"Release": true, "release": true, "Put": true, "put": true}

func runPoolPair(pass *Pass) {
	forEachFuncDecl(pass.Files, func(fn *ast.FuncDecl) {
		checkPoolPairs(pass, fn)
	})
}

type poolAcq struct {
	obj  types.Object
	pool string
	pos  token.Pos
}

type poolRelease struct {
	obj      types.Object
	pos      token.Pos
	deferred bool
}

func checkPoolPairs(pass *Pass, fn *ast.FuncDecl) {
	var acqs []poolAcq
	var rels []poolRelease
	var returns []token.Pos

	inspectStack([]*ast.File{wrapBody(fn)}, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			returns = append(returns, n.Pos())
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return
			}
			id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident)
			if !ok {
				return
			}
			if pool, ok := poolGetCall(pass, n.Rhs[0]); ok {
				acqs = append(acqs, poolAcq{pass.ObjectOf(id), pool, n.Pos()})
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || !releaseNames[sel.Sel.Name] {
				return
			}
			deferred := false
			for _, anc := range stack {
				if d, ok := anc.(*ast.DeferStmt); ok && d.Call == n {
					deferred = true
				}
			}
			if _, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && isSyncPool(pass.TypeOf(sel.X)) {
				// pool.Put(x): releases every identifier argument.
				for _, arg := range n.Args {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						rels = append(rels, poolRelease{pass.ObjectOf(id), n.Pos(), deferred})
					}
				}
				return
			}
			// x.Release() / x.release(): releases the receiver.
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				rels = append(rels, poolRelease{pass.ObjectOf(id), n.Pos(), deferred})
			}
		}
	})

	for _, a := range acqs {
		if a.obj == nil {
			continue
		}
		first := token.Pos(-1)
		deferred := false
		for _, r := range rels {
			if r.obj != a.obj {
				continue
			}
			if r.deferred {
				deferred = true
			}
			if first < 0 || r.pos < first {
				first = r.pos
			}
		}
		switch {
		case first < 0:
			pass.Reportf(a.pos,
				"%s acquired from %s is never released in this function; pair it with a Put/Release (or suppress with an escapes: reason)",
				a.obj.Name(), a.pool)
		case deferred:
			// A deferred release covers every path.
		default:
			for _, ret := range returns {
				if ret > a.pos && ret < first {
					pass.Reportf(a.pos,
						"%s acquired from %s may leak on the return at %s before its release; release it in a defer or on that path",
						a.obj.Name(), a.pool, pass.Fset.Position(ret))
					break
				}
			}
		}
	}
}

// poolGetCall matches `pool.Get()` optionally wrapped in a type
// assertion, returning a printable pool name.
func poolGetCall(pass *Pass, e ast.Expr) (string, bool) {
	if ta, ok := ast.Unparen(e).(*ast.TypeAssertExpr); ok {
		e = ta.X
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" || !isSyncPool(pass.TypeOf(sel.X)) {
		return "", false
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		return id.Name, true
	}
	return "sync.Pool", true
}

// wrapBody adapts a single function declaration to inspectStack's file
// slice interface by walking just that declaration.
func wrapBody(fn *ast.FuncDecl) *ast.File {
	return &ast.File{Name: ast.NewIdent("_"), Decls: []ast.Decl{fn}}
}
