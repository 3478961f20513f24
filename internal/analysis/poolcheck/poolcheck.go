// Package poolcheck enforces the one rule fraz/internal/pool is used by:
// scratch is borrowed for the length of a function. A value obtained from
// pool.Get[T] or pool.GetFlateWriter is assigned to a local variable of the
// function that obtained it and released by a defer in that same function —
// `defer pool.Put(v)`, or a pool.Put(v) inside a deferred closure — and by
// nothing else. It is never returned, never released through a reslice,
// never released twice, and no function releases what it did not get.
//
// The rule is lexical, so the check is syntactic: it reads each function
// body on its own, top to bottom (a function literal is a function of its
// own, except a deferred one, which is part of the function that defers it),
// and follows no control flow, aliases or struct fields. Code that needs any
// of those to be judged correct does not follow the rule, and is flagged.
package poolcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fraz/internal/analysis"
)

// Analyzer flags every use of internal/pool that is not a borrow released by
// a defer of the borrowing function.
var Analyzer = &analysis.Analyzer{
	Name: "poolcheck",
	Doc: "check that every pool.Get result is assigned to a local and released by a " +
		"defer in the same function, and that nothing else is released, returned, " +
		"released through a reslice or released twice",
	Run: run,
}

const poolPathSuffix = "internal/pool"

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), poolPathSuffix) {
		return nil // the pool's own plumbing necessarily handles raw slices
	}
	c := &checker{pass: pass, deferredLits: map[*ast.FuncLit]bool{}}
	called := map[ast.Expr]bool{} // expressions in call position
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					c.deferredLits[lit] = true
				}
			case *ast.CallExpr:
				called[n.Fun] = true
			case *ast.IndexExpr:
				called[n.X] = called[n] // pool.Get[T](n) calls pool.Get
			case *ast.SelectorExpr:
				if name := c.poolFunc(n); name != "" && !called[n] {
					c.pass.Reportf(n.Pos(), "pool.%s is used as a value; a call through it cannot be checked", name)
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					c.checkFunc(fn.Body)
				}
			case *ast.FuncLit:
				if !c.deferredLits[fn] {
					c.checkFunc(fn.Body)
				}
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass         *analysis.Pass
	deferredLits map[*ast.FuncLit]bool // literals that are the operand of a defer
}

// borrow is one pooled local of the function being checked.
type borrow struct {
	get      token.Pos
	released bool
}

func (c *checker) checkFunc(body *ast.BlockStmt) {
	borrows := map[types.Object]*borrow{}
	bound := map[*ast.CallExpr]bool{}    // Get calls whose result has a name
	deferred := map[*ast.CallExpr]bool{} // calls that run as part of a defer
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return c.deferredLits[n] // any other literal is checked on its own
		case *ast.AssignStmt:
			// v := pool.Get[T](n), v = pool.Get[T](n)[:0], fw :=
			// pool.GetFlateWriter(w); a Get anywhere else has no name to
			// release it by.
			if len(n.Lhs) != len(n.Rhs) {
				break // a tuple-valued call; no Get is one
			}
			for i, rhs := range n.Rhs {
				if se, ok := rhs.(*ast.SliceExpr); ok {
					rhs = se.X
				}
				call, isCall := rhs.(*ast.CallExpr)
				if id, ok := n.Lhs[i].(*ast.Ident); ok && isCall && c.isPoolCall(call, "Get") && id.Name != "_" {
					borrows[c.pass.TypesInfo.ObjectOf(id)] = &borrow{get: call.Pos()}
					bound[call] = true
				}
			}
		case *ast.DeferStmt:
			ast.Inspect(n.Call, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					deferred[call] = true
				}
				return true
			})
		case *ast.CallExpr:
			switch {
			case c.isPoolCall(n, "Get") && !bound[n]:
				c.pass.Reportf(n.Pos(), "pool.Get result is not assigned to a local variable, so nothing can release it")
			case c.isPoolCall(n, "Put"):
				c.release(n, borrows, deferred[n])
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if id, _ := unslice(r); id != nil && borrows[c.pass.TypesInfo.ObjectOf(id)] != nil {
					c.pass.Reportf(r.Pos(), "pooled buffer %s is returned; a result is a plain allocation its receiver owns", id.Name)
				}
			}
		}
		return true
	})
	for obj, b := range borrows {
		if !b.released {
			c.pass.Reportf(b.get, "pooled buffer %s has no deferred release in the function that got it", obj.Name())
		}
	}
}

// release checks one pool.Put call against the function's borrows so far.
func (c *checker) release(call *ast.CallExpr, borrows map[types.Object]*borrow, deferred bool) {
	id, resliced := unslice(call.Args[0])
	b := borrows[c.pass.TypesInfo.ObjectOf(id)] // nil too when the operand is no variable at all
	switch {
	case b == nil:
		c.pass.Reportf(call.Pos(), "release of %s, which this function did not get from the pool", types.ExprString(call.Args[0]))
		return
	case resliced:
		c.pass.Reportf(call.Pos(), "release of a reslice of pooled buffer %s; release the slice Get returned", id.Name)
	case b.released:
		c.pass.Reportf(call.Pos(), "pooled buffer %s is released twice", id.Name)
	case !deferred:
		c.pass.Reportf(call.Pos(), "release of pooled buffer %s is not deferred", id.Name)
	}
	b.released = true
}

// poolFunc returns the name of the fraz/internal/pool function e refers to,
// written pool.Name or, instantiated explicitly, pool.Name[T]; "" otherwise.
func (c *checker) poolFunc(e ast.Expr) string {
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), poolPathSuffix) {
		return ""
	}
	return fn.Name()
}

// isPoolCall reports whether call invokes pool.Get* (prefix "Get") or
// pool.Put* (prefix "Put").
func (c *checker) isPoolCall(call *ast.CallExpr, prefix string) bool {
	return strings.HasPrefix(c.poolFunc(call.Fun), prefix)
}

// unslice strips slice expressions down to the identifier underneath, if
// there is one, and reports whether a slice expression was in the way.
func unslice(e ast.Expr) (id *ast.Ident, resliced bool) {
	for {
		switch x := e.(type) {
		case *ast.SliceExpr:
			e, resliced = x.X, true
		case *ast.Ident:
			return x, resliced
		default:
			return nil, resliced
		}
	}
}
