// Package poolcheck verifies the lifecycle discipline of fraz/internal/pool
// buffers: every pool.Get acquisition (pool.Get[T], pool.GetFlateWriter)
// must reach a matching pool.Put (or be handed to the caller by returning
// it) on every path out of the function, including early error returns. It
// also flags double puts and puts of a reslice alias, both of which poison
// the free lists for later gets.
//
// The checker is an AST-level path walk, not a full CFG dataflow: within a
// function it tracks pooled slices held in local variables (and in fields of
// local structs, the container writer idiom), follows branches of
// if/for/switch independently, and reports at each return statement any
// acquisition that is neither put, deferred-put, nor part of the returned
// value. The pool's accessors are generic, so code that is itself generic
// over the element type calls them directly and every get and put is a call
// into the pool package that the walk can see. A pooled slice captured by a
// non-deferred closure or stored into a longer-lived structure leaves the
// function's custody and is conservatively dropped from tracking rather
// than reported.
package poolcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fraz/internal/analysis"
)

// Analyzer flags pool.Get buffers that can leak, be put twice, or be put
// through a reslice alias.
var Analyzer = &analysis.Analyzer{
	Name: "poolcheck",
	Doc: "check that every pool.Get is matched by a pool.Put on all paths " +
		"(or ownership is transferred by returning the buffer), with no double " +
		"puts and no puts of reslice aliases",
	Run: run,
}

const poolPathSuffix = "internal/pool"

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), poolPathSuffix) {
		return nil // the pool's own plumbing necessarily handles raw slices
	}
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkBody(fd.Body)
			}
		}
		// Function literals get the same treatment as declared functions;
		// their bodies are skipped by the enclosing walk, so each is
		// analyzed exactly once.
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.checkBody(lit.Body)
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// isPoolCall reports whether call invokes fraz/internal/pool.<prefix>*.
func (c *checker) isPoolCall(call *ast.CallExpr, prefix string) bool {
	obj := c.calleeObject(call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(obj.Pkg().Path(), poolPathSuffix) && strings.HasPrefix(obj.Name(), prefix)
}

// isGetCall reports whether call acquires a pooled buffer.
func (c *checker) isGetCall(call *ast.CallExpr) bool { return c.isPoolCall(call, "Get") }

// isPutCall reports whether call releases a pooled buffer.
func (c *checker) isPutCall(call *ast.CallExpr) bool { return c.isPoolCall(call, "Put") }

// calleeObject resolves the function object a call invokes, looking through
// generic instantiation.
func (c *checker) calleeObject(call *ast.CallExpr) types.Object {
	fun := unparen(call.Fun)
	switch fn := fun.(type) {
	case *ast.IndexExpr:
		fun = unparen(fn.X)
	case *ast.IndexListExpr:
		fun = unparen(fn.X)
	}
	switch fn := fun.(type) {
	case *ast.Ident:
		return c.pass.TypesInfo.Uses[fn]
	case *ast.SelectorExpr:
		return c.pass.TypesInfo.Uses[fn.Sel]
	}
	return nil
}

// ref identifies a tracked holder of a pooled slice: a local variable, or a
// named field of a local struct variable (field != "").
type ref struct {
	obj   types.Object
	field string
}

func (r ref) name() string {
	if r.field != "" {
		return r.obj.Name() + "." + r.field
	}
	return r.obj.Name()
}

// state is the walker's view of one control-flow path.
type state struct {
	live     map[ref]token.Pos // acquired, not yet released
	put      map[ref]bool      // released on this path
	deferred map[ref]bool      // released by a defer, safe on every exit
	alias    map[ref]ref       // reslice alias -> tracked root
}

func newState() *state {
	return &state{live: map[ref]token.Pos{}, put: map[ref]bool{}, deferred: map[ref]bool{}, alias: map[ref]ref{}}
}

func (s *state) clone() *state {
	n := newState()
	for k, v := range s.live {
		n.live[k] = v
	}
	for k := range s.put {
		n.put[k] = true
	}
	for k := range s.deferred {
		n.deferred[k] = true
	}
	for k, v := range s.alias {
		n.alias[k] = v
	}
	return n
}

// merge folds another fall-through path into s: a buffer is considered live
// if any merged path still holds it, so a put missing on one branch is
// reported at the next return.
func (s *state) merge(o *state) {
	for k, v := range o.live {
		if _, ok := s.live[k]; !ok {
			s.live[k] = v
		}
	}
	for k := range o.put {
		s.put[k] = true
	}
	for k := range o.deferred {
		s.deferred[k] = true
		delete(s.live, k)
	}
	for k, v := range o.alias {
		s.alias[k] = v
	}
}

// untrack abandons custody of every ref rooted at the same object as r.
func (s *state) untrack(r ref) {
	delete(s.live, r)
	delete(s.put, r)
}

// untrackObj abandons every ref held by obj (the whole struct escaped).
func (s *state) untrackObj(obj types.Object) {
	for k := range s.live {
		if k.obj == obj {
			delete(s.live, k)
		}
	}
}

type walker struct {
	c *checker
	s *state
}

func (c *checker) checkBody(body *ast.BlockStmt) {
	w := &walker{c: c, s: newState()}
	if terminated := w.stmts(body.List); !terminated {
		w.reportLeaks(body.Rbrace, nil)
	}
}

func (w *walker) stmts(list []ast.Stmt) bool {
	for _, s := range list {
		if w.stmt(s) {
			return true
		}
	}
	return false
}

// stmt walks one statement and reports whether the path terminates here
// (return, branch, or panic-like call).
func (w *walker) stmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List)
	case *ast.ReturnStmt:
		w.handleReturn(s)
		return true
	case *ast.BranchStmt:
		return true // break/continue/goto: stop following this path
	case *ast.AssignStmt:
		w.handleAssign(s)
	case *ast.DeclStmt:
		w.handleDecl(s)
	case *ast.ExprStmt:
		w.handleExpr(s.X)
	case *ast.DeferStmt:
		w.handleDefer(s)
	case *ast.GoStmt:
		w.escapeRefsIn(s.Call)
	case *ast.SendStmt:
		w.escapeRefsIn(s.Value)
	case *ast.IfStmt:
		return w.handleIf(s)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.useExpr(s.Cond)
		body := w.fork()
		body.stmts(s.Body.List)
		if s.Post != nil {
			body.stmt(s.Post)
		}
		w.s.merge(body.s)
	case *ast.RangeStmt:
		w.useExpr(s.X)
		body := w.fork()
		body.stmts(s.Body.List)
		w.s.merge(body.s)
	case *ast.SwitchStmt:
		return w.handleSwitch(s.Init, s.Tag, s.Body, nil)
	case *ast.TypeSwitchStmt:
		return w.handleSwitch(s.Init, nil, s.Body, s.Assign)
	case *ast.SelectStmt:
		terminated := len(s.Body.List) > 0
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			branch := w.fork()
			if cc.Comm != nil {
				branch.stmt(cc.Comm)
			}
			if !branch.stmts(cc.Body) {
				w.s.merge(branch.s)
				terminated = false
			}
		}
		return terminated
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt)
	case *ast.IncDecStmt, *ast.EmptyStmt:
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.useExpr(e)
				return false
			}
			return true
		})
	}
	return false
}

func (w *walker) fork() *walker { return &walker{c: w.c, s: w.s.clone()} }

func (w *walker) handleIf(s *ast.IfStmt) bool {
	if s.Init != nil {
		w.stmt(s.Init)
	}
	w.useExpr(s.Cond)
	then := w.fork()
	thenTerm := then.stmts(s.Body.List)
	if s.Else == nil {
		if !thenTerm {
			w.s.merge(then.s)
		}
		return false
	}
	els := w.fork()
	elseTerm := els.stmt(s.Else)
	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		w.s = els.s
	case elseTerm:
		w.s = then.s
	default:
		w.s = then.s
		w.s.merge(els.s)
	}
	return false
}

func (w *walker) handleSwitch(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, assign ast.Stmt) bool {
	if init != nil {
		w.stmt(init)
	}
	w.useExpr(tag)
	hasDefault := false
	allTerminate := len(body.List) > 0
	merged := false
	pre := w.s
	w.s = pre.clone()
	for _, clause := range body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		branch := &walker{c: w.c, s: pre.clone()}
		if assign != nil {
			branch.stmt(assign)
		}
		if !branch.stmts(cc.Body) {
			allTerminate = false
			if !merged {
				w.s = branch.s
				merged = true
			} else {
				w.s.merge(branch.s)
			}
		}
	}
	if !hasDefault {
		if merged {
			w.s.merge(pre)
		} else {
			w.s = pre
		}
		return false
	}
	if !merged {
		w.s = pre
	}
	return allTerminate
}

// handleReturn treats returned pooled buffers as ownership transfers and
// reports every remaining live acquisition as a leak on this path.
func (w *walker) handleReturn(s *ast.ReturnStmt) {
	returned := map[ref]bool{}
	for _, r := range s.Results {
		ast.Inspect(r, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				if rf, ok := w.refOf(e); ok {
					returned[rf] = true
					if root, ok := w.s.alias[rf]; ok {
						returned[root] = true
					}
				}
			}
			// A Get in the return value itself also transfers ownership.
			if call, ok := n.(*ast.CallExpr); ok && w.c.isGetCall(call) {
				return false
			}
			return true
		})
	}
	w.reportLeaks(s.Pos(), returned)
}

func (w *walker) reportLeaks(pos token.Pos, returned map[ref]bool) {
	for rf, getPos := range w.s.live {
		if w.s.deferred[rf] || returned[rf] {
			continue
		}
		w.c.pass.Reportf(pos, "pooled buffer %s (acquired at line %d) is not put on this return path",
			rf.name(), w.c.pass.Fset.Position(getPos).Line)
	}
}

// handleAssign tracks acquisitions, aliases, and escapes on the right-hand
// sides, keyed by the left-hand targets.
func (w *walker) handleAssign(s *ast.AssignStmt) {
	if len(s.Lhs) == len(s.Rhs) {
		for i, rhs := range s.Rhs {
			w.assignOne(s.Lhs[i], rhs)
		}
		return
	}
	// Multi-value assignment from one call: no pooled tracking across
	// tuple returns, but the RHS may still capture tracked buffers.
	for _, rhs := range s.Rhs {
		w.useExpr(rhs)
	}
}

func (w *walker) assignOne(lhs, rhs ast.Expr) {
	rhs = unparen(rhs)

	// v := pool.Get[T](n) or v := pool.Get[T](n)[:0]
	if call, ok := unwrapGetExpr(rhs); ok && w.c.isGetCall(call) {
		if rf, ok := w.refOf(lhs); ok {
			w.s.live[rf] = call.Pos()
			delete(w.s.put, rf)
			return
		}
		w.c.pass.Reportf(call.Pos(), "pooled Get result is neither stored in a trackable variable nor returned; the buffer can never be put")
		return
	}

	// w := writer{buf: pool.Get[byte](n)} / enc := &encoder{codes: pool.Get[int32](n)[:0]}
	if lit := compositeLit(rhs); lit != nil {
		if target, ok := lhs.(*ast.Ident); ok {
			obj := w.objOf(target)
			tracked := false
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				if call, ok := unwrapGetExpr(unparen(kv.Value)); ok && w.c.isGetCall(call) {
					if obj != nil {
						w.s.live[ref{obj, key.Name}] = call.Pos()
						tracked = true
						continue
					}
					w.c.pass.Reportf(call.Pos(), "pooled Get result is neither stored in a trackable variable nor returned; the buffer can never be put")
					continue
				}
				// A tracked buffer stored in a composite literal escapes
				// into whatever the literal becomes.
				w.escapeRefsIn(kv.Value)
			}
			if tracked {
				return
			}
		}
		w.useExpr(rhs)
		return
	}

	// bits := scratch[:n] — remember the alias so a put through it is caught.
	if se, ok := rhs.(*ast.SliceExpr); ok {
		if root, ok := w.trackedRef(se.X); ok {
			if a, ok := w.refOf(lhs); ok {
				w.s.alias[a] = root
				return
			}
		}
	}

	// other := kept — custody moves to a second name the walker cannot
	// follow reliably; drop tracking rather than risk a false leak report.
	if rf, ok := w.refOf(rhs); ok {
		if root, isAlias := w.s.alias[rf]; isAlias {
			rf = root
		}
		if _, isLive := w.s.live[rf]; isLive {
			if lhsRef, ok := w.refOf(lhs); !ok || lhsRef != rf {
				w.s.untrack(rf)
			}
			return
		}
	}

	// Reassigning a tracked holder through an expression keeps it live only
	// if the old buffer still flows through the RHS (the append-growth
	// idiom `buf = append(buf, …)`); a plain overwrite loses the handle,
	// which stays live so the loss is reported at the next return.
	w.useExpr(rhs)
}

func (w *walker) handleDecl(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) != len(vs.Names) {
			continue
		}
		for i, v := range vs.Values {
			w.assignOne(vs.Names[i], v)
		}
	}
}

// handleExpr processes an expression statement: put calls release buffers,
// anything else is scanned for escapes.
func (w *walker) handleExpr(e ast.Expr) {
	e = unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && w.c.isPutCall(call) {
		w.handlePut(call, false)
		return
	}
	w.useExpr(e)
}

// handlePut validates one release. deferredCtx marks puts inside a defer,
// which are safe on every exit path.
func (w *walker) handlePut(call *ast.CallExpr, deferredCtx bool) {
	if len(call.Args) == 0 {
		return
	}
	arg := unparen(call.Args[0])

	if se, ok := arg.(*ast.SliceExpr); ok {
		if root, ok := w.trackedRef(se.X); ok {
			w.c.pass.Reportf(call.Pos(), "put of a reslice of pooled buffer %s; put the originally acquired slice", root.name())
			return
		}
	}
	rf, ok := w.refOf(arg)
	if !ok {
		return
	}
	if root, isAlias := w.s.alias[rf]; isAlias {
		w.c.pass.Reportf(call.Pos(), "put of %s, a reslice alias of pooled buffer %s; put the original", rf.name(), root.name())
		return
	}
	_, isLive := w.s.live[rf]
	if !isLive && w.s.put[rf] {
		w.c.pass.Reportf(call.Pos(), "double put of pooled buffer %s", rf.name())
		return
	}
	if !isLive && w.s.deferred[rf] {
		w.c.pass.Reportf(call.Pos(), "put of pooled buffer %s that is already put by a defer", rf.name())
		return
	}
	if deferredCtx {
		w.s.deferred[rf] = true
	} else {
		w.s.put[rf] = true
	}
	delete(w.s.live, rf)
}

// handleDefer credits puts performed by deferred calls — directly or inside
// a deferred closure — to every exit path.
func (w *walker) handleDefer(s *ast.DeferStmt) {
	if w.c.isPutCall(s.Call) {
		w.handlePut(s.Call, true)
		return
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && w.c.isPutCall(call) {
				w.handlePut(call, true)
				return false
			}
			return true
		})
		return
	}
	w.escapeRefsIn(s.Call)
}

// useExpr scans an expression for events that end the function's custody of
// a tracked buffer: capture by a (non-deferred) function literal, storage
// into a composite literal, address-taking, or an unassigned Get call. Plain
// reads — including passing the slice to a call — keep custody with the
// caller, matching the pool contract that whoever Gets must Put.
func (w *walker) useExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.escapeRefsIn(n.Body)
			return false
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				w.escapeRefsIn(elt)
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				w.escapeRefsIn(n.X)
				return false
			}
		case *ast.CallExpr:
			if w.c.isGetCall(n) {
				w.c.pass.Reportf(n.Pos(), "pooled Get result is neither stored in a trackable variable nor returned; the buffer can never be put")
				return false
			}
			if w.c.isPutCall(n) {
				w.handlePut(n, false)
				return false
			}
		}
		return true
	})
}

// escapeRefsIn drops custody of every tracked buffer referenced in the
// subtree: the reference now lives beyond this function's control flow.
func (w *walker) escapeRefsIn(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := w.objOf(id); obj != nil {
				w.s.untrackObj(obj)
			}
		}
		return true
	})
}

// refOf resolves an expression to a tracked holder: a plain identifier or a
// field selector on a local variable.
func (w *walker) refOf(e ast.Expr) (ref, bool) {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if obj := w.objOf(e); obj != nil {
			if _, isVar := obj.(*types.Var); isVar {
				return ref{obj, ""}, true
			}
		}
	case *ast.SelectorExpr:
		base, ok := unparen(e.X).(*ast.Ident)
		if !ok {
			return ref{}, false
		}
		obj := w.objOf(base)
		if obj == nil {
			return ref{}, false
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return ref{}, false
		}
		// Only field selections count; method values resolve elsewhere.
		if sel, ok := w.c.pass.TypesInfo.Selections[e]; ok && sel.Kind() != types.FieldVal {
			return ref{}, false
		}
		return ref{obj, e.Sel.Name}, true
	}
	return ref{}, false
}

// trackedRef resolves e to a currently tracked ref (live, put, or deferred),
// following one level of aliasing.
func (w *walker) trackedRef(e ast.Expr) (ref, bool) {
	rf, ok := w.refOf(e)
	if !ok {
		return ref{}, false
	}
	if root, isAlias := w.s.alias[rf]; isAlias {
		rf = root
	}
	if _, ok := w.s.live[rf]; ok {
		return rf, true
	}
	if w.s.put[rf] || w.s.deferred[rf] {
		return rf, true
	}
	return ref{}, false
}

func (w *walker) objOf(id *ast.Ident) types.Object {
	if obj := w.c.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return w.c.pass.TypesInfo.Defs[id]
}

// unwrapGetExpr strips the reslice-at-acquisition idiom pool.Get[T](n)[:0]
// down to the underlying call.
func unwrapGetExpr(e ast.Expr) (*ast.CallExpr, bool) {
	e = unparen(e)
	if se, ok := e.(*ast.SliceExpr); ok {
		e = unparen(se.X)
	}
	call, ok := e.(*ast.CallExpr)
	return call, ok
}

// unparen strips any number of enclosing parentheses. (ast.Unparen arrived
// in Go 1.22; this module still builds at 1.21.)
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// compositeLit unwraps plain and address-of composite literals.
func compositeLit(e ast.Expr) *ast.CompositeLit {
	e = unparen(e)
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = unparen(ue.X)
	}
	lit, _ := e.(*ast.CompositeLit)
	return lit
}
