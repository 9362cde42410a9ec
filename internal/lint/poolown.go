package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolOwn enforces the pooled-value lifecycle discipline that the
// zero-alloc hot paths depend on: every pool Get must reach its Put or
// Release on every return path (error and early returns included),
// every refcounted delta retain must pair with a release, and pooled
// values may only escape their acquiring function — returned, stored
// into a struct or slice, sent on a channel — through a function
// annotated //memsnap:owns, which documents the ownership transfer.
// Annotated functions themselves are trusted manual-ownership zones
// (they move pooled values through containers the binding-based
// walker cannot follow) and are skipped, not checked.
//
// The check is an intraprocedural abstract walk over each function
// body: acquires bind an obligation to the receiving variable,
// releases discharge it, branches analyze both arms and keep an
// obligation live if either arm leaves it live (release must happen on
// ALL paths), and loops require obligations acquired inside an
// iteration to be discharged before the iteration ends. A `defer
// v.Release()` (directly or inside a deferred closure) settles the
// variable for every exit. Passing a pooled value to an ordinary
// function is a borrow and carries no obligation either way.
//
// Known limitations, by design: functions containing goto are skipped;
// variables captured by non-deferred closures are treated as settled
// (their lifecycle moved out of scope); and releases of values acquired
// in another function are ignored rather than matched (the pipeline
// hand-off pattern — retain here, release in the receiving loop — is
// legalized by //memsnap:owns at the hand-off and checked structurally
// at both ends).
var PoolOwn = &Analyzer{
	Name:       "poolown",
	Doc:        "pooled Get/retain must reach Put/Release on every path; pooled values escape only via //memsnap:owns functions",
	RunProgram: runPoolOwn,
}

// ownRelease names one accepted release call for an acquire API: the
// funcKey plus where the pooled value is passed (arg index, or -1 for
// the method receiver).
type ownRelease struct {
	key string
	arg int
}

// ownAPI describes one acquire entry point.
type ownAPI struct {
	// what names the pooled value in diagnostics.
	what string
	// onRecv acquires bind the obligation to the method receiver
	// (retain-style) instead of to a result value.
	onRecv bool
	// result is the index of the pooled value among the call's results
	// (value acquires only).
	result   int
	releases []ownRelease
}

// poolAPIs is the acquire/release registry, keyed by funcKey. The
// lintfixtures entries are test doubles for the fixture packages,
// mirroring faultpath's faultdev registry pattern.
var poolAPIs = map[string]*ownAPI{
	"memsnap/internal/pool.(PagePool).Get": {what: "pooled page", releases: []ownRelease{
		{"memsnap/internal/pool.(Page).Release", -1},
	}},
	"memsnap/internal/pool.(SlicePool).Get": {what: "pooled slice", releases: []ownRelease{
		{"memsnap/internal/pool.(SlicePool).Put", 0},
	}},
	"memsnap/internal/core.GetCommittedPages": {what: "committed-page slice", releases: []ownRelease{
		{"memsnap/internal/core.ReleasePages", 0},
	}},
	"memsnap/internal/replica.(Delta).retain": {what: "delta reference", onRecv: true, releases: []ownRelease{
		{"memsnap/internal/replica.(Delta).release", -1},
	}},

	"memsnap/internal/lintfixtures/poolown.(BufPool).Get": {what: "pooled buffer", releases: []ownRelease{
		{"memsnap/internal/lintfixtures/poolown.(Buf).Release", -1},
		{"memsnap/internal/lintfixtures/poolown.(BufPool).Put", 0},
	}},
	"memsnap/internal/lintfixtures/poolown.(RC).Acquire": {what: "refcounted handle", onRecv: true, releases: []ownRelease{
		{"memsnap/internal/lintfixtures/poolown.(RC).Release", -1},
	}},
}

// releaseMatches reports whether key at position arg releases api.
func releaseMatches(api *ownAPI, key string, arg int) bool {
	for _, r := range api.releases {
		if r.key == key && r.arg == arg {
			return true
		}
	}
	return false
}

// anyReleaseKey reports whether key is a release entry point of any
// registered API, returning the argument position.
func anyReleaseKey(key string) (int, bool) {
	for _, api := range poolAPIs {
		for _, r := range api.releases {
			if r.key == key {
				return r.arg, true
			}
		}
	}
	return 0, false
}

// obligation is one live acquire awaiting its release.
type obligation struct {
	api *ownAPI
	// site is the acquire expression, where leaks are reported.
	site ast.Node
	// count is the outstanding reference count (1 for plain acquires).
	count int
	// depth is the loop-nesting depth at acquire time; obligations with
	// depth >= the current loop's depth were acquired this iteration.
	depth int
}

// ownState maps each bound variable to its live obligation.
type ownState map[*types.Var]*obligation

func (st ownState) clone() ownState {
	out := make(ownState, len(st))
	for v, ob := range st {
		c := *ob
		out[v] = &c
	}
	return out
}

// mergeOwn joins two branch results: an obligation live in either arm
// stays live (release is required on ALL paths), and refcounts keep
// the larger outstanding count.
func mergeOwn(a, b ownState) ownState {
	out := a
	for v, ob := range b {
		if cur, ok := out[v]; !ok || ob.count > cur.count {
			out[v] = ob
		}
	}
	return out
}

func runPoolOwn(pass *ProgramPass) {
	for _, node := range pass.Prog.Funcs() {
		// //memsnap:owns functions are manual-ownership zones: they
		// move pooled values through containers and hand-offs the
		// binding-based walker cannot follow, so they are trusted
		// rather than checked.
		if node.File.Test || node.Owns {
			continue
		}
		w := &poolWalker{
			pass:     pass,
			prog:     pass.Prog,
			node:     node,
			info:     node.Pkg.Info,
			settled:  map[*types.Var]bool{},
			reported: map[token.Pos]bool{},
		}
		w.run()
	}
}

// poolWalker analyzes one function body.
type poolWalker struct {
	pass     *ProgramPass
	prog     *Program
	node     *FuncNode
	info     *types.Info
	settled  map[*types.Var]bool
	reported map[token.Pos]bool
	depth    int
}

func (w *poolWalker) run() {
	body := w.node.Decl.Body
	if containsGoto(body) {
		return
	}
	w.prescanDefers(body)
	st, terminated := w.stmts(body.List, ownState{})
	if !terminated {
		w.leakCheck(st, 0)
	}
}

func (w *poolWalker) reportAt(n ast.Node, format string, args ...any) {
	if w.reported[n.Pos()] {
		return
	}
	w.reported[n.Pos()] = true
	w.pass.Reportf(w.node.Pkg, n, format, args...)
}

// leakCheck reports every obligation still live that was acquired at
// loop depth >= minDepth (0 checks everything).
func (w *poolWalker) leakCheck(st ownState, minDepth int) {
	for v, ob := range st {
		if w.settled[v] || ob.count <= 0 || ob.depth < minDepth {
			continue
		}
		w.leakAt(ob)
	}
}

func (w *poolWalker) leakAt(ob *obligation) {
	w.reportAt(ob.site,
		"%s acquired here is not released on every path (pair the acquire with its Put/Release on all returns, or hand ownership to a //memsnap:owns function)",
		ob.api.what)
}

// escape handles a pooled value leaving the function's frame: legal
// when permitted (the enclosing or receiving function is annotated
// //memsnap:owns), a diagnostic otherwise. Either way the obligation
// is discharged so it is not re-reported as a leak.
func (w *poolWalker) escape(st ownState, v *types.Var, site ast.Node, via string, permitted bool) {
	ob := st[v]
	if ob == nil || w.settled[v] {
		return
	}
	delete(st, v)
	if permitted {
		return
	}
	w.reportAt(site,
		"%s escapes via %s without an ownership transfer (annotate the receiving function //memsnap:owns, or release before this point)",
		ob.api.what, via)
}

// release discharges one reference of v's obligation.
func (w *poolWalker) release(st ownState, v *types.Var) {
	ob := st[v]
	if ob == nil {
		return
	}
	ob.count--
	if ob.count <= 0 {
		delete(st, v)
	}
}

func (w *poolWalker) varOf(id *ast.Ident) *types.Var {
	v, _ := w.info.Uses[id].(*types.Var)
	return v
}

// stmts walks a statement list. The returned bool reports that control
// cannot fall off the end (return/break/continue on every path so far).
func (w *poolWalker) stmts(list []ast.Stmt, st ownState) (ownState, bool) {
	for _, s := range list {
		var terminated bool
		st, terminated = w.stmt(s, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (w *poolWalker) stmt(s ast.Stmt, st ownState) (ownState, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.scanExpr(s.X, st)
	case *ast.AssignStmt:
		w.assign(s, st)
	case *ast.DeclStmt:
		w.declStmt(s, st)
	case *ast.ReturnStmt:
		w.ret(s, st)
		return st, true
	case *ast.DeferStmt:
		// Releases inside defers were credited by the pre-scan; the
		// call itself does not run here.
	case *ast.GoStmt:
		// A goroutine's lifecycle is out of scope: captured pooled
		// values are settled rather than tracked (see the analyzer doc).
		w.settleCaptured(s, st)
	case *ast.SendStmt:
		w.scanExpr(s.Chan, st)
		if id, ok := ast.Unparen(s.Value).(*ast.Ident); ok {
			if v := w.varOf(id); v != nil && st[v] != nil {
				w.escape(st, v, s, "channel send", w.node.Owns)
				break
			}
		}
		w.scanExpr(s.Value, st)
	case *ast.IncDecStmt:
		w.scanExpr(s.X, st)
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.IfStmt:
		return w.ifStmt(s, st)
	case *ast.ForStmt:
		return w.forStmt(s, st)
	case *ast.RangeStmt:
		return w.rangeStmt(s, st)
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, st)
		}
		return w.caseClauses(s.Body, st, hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		st, _ = w.stmt(s.Assign, st)
		return w.caseClauses(s.Body, st, hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		// Exactly one comm clause runs; merge every non-terminating arm.
		return w.caseClauses(s.Body, st, true)
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE {
			// The iteration ends here: anything acquired inside the
			// loop body is gone.
			w.leakCheck(st, w.depth)
		}
		// break may target a switch or a loop; skipping the check there
		// trades a missed leak for zero false positives.
		return st, true
	}
	return st, false
}

func (w *poolWalker) ifStmt(s *ast.IfStmt, st ownState) (ownState, bool) {
	if s.Init != nil {
		st, _ = w.stmt(s.Init, st)
	}
	w.scanExpr(s.Cond, st)
	thenSt, thenTerm := w.stmts(s.Body.List, st.clone())
	elseSt, elseTerm := st, false
	if s.Else != nil {
		elseSt, elseTerm = w.stmt(s.Else, st.clone())
	}
	switch {
	case thenTerm && elseTerm:
		return st, true
	case thenTerm:
		return elseSt, false
	case elseTerm:
		return thenSt, false
	default:
		return mergeOwn(thenSt, elseSt), false
	}
}

func (w *poolWalker) forStmt(s *ast.ForStmt, st ownState) (ownState, bool) {
	if s.Init != nil {
		st, _ = w.stmt(s.Init, st)
	}
	if s.Cond != nil {
		w.scanExpr(s.Cond, st)
	}
	w.depth++
	bodySt, terminated := w.stmts(s.Body.List, st.clone())
	if !terminated && s.Post != nil {
		bodySt, _ = w.stmt(s.Post, bodySt)
	}
	// Obligations acquired during the iteration must be discharged by
	// its end — the next iteration cannot see them.
	if !terminated {
		w.leakCheck(bodySt, w.depth)
	}
	w.depth--
	bodySt = dropDeeper(bodySt, w.depth)
	// The loop may run zero times: the pre-loop state stays reachable.
	return mergeOwn(bodySt, st), false
}

func (w *poolWalker) rangeStmt(s *ast.RangeStmt, st ownState) (ownState, bool) {
	w.scanExpr(s.X, st)
	w.depth++
	bodySt, terminated := w.stmts(s.Body.List, st.clone())
	if !terminated {
		w.leakCheck(bodySt, w.depth)
	}
	w.depth--
	bodySt = dropDeeper(bodySt, w.depth)
	return mergeOwn(bodySt, st), false
}

// dropDeeper removes obligations acquired at loop depth > depth (they
// were already leak-checked at the iteration boundary).
func dropDeeper(st ownState, depth int) ownState {
	for v, ob := range st {
		if ob.depth > depth {
			delete(st, v)
		}
	}
	return st
}

// caseClauses walks each clause body against a copy of st and merges
// the non-terminating results; without a default clause the pre-switch
// state stays reachable too.
func (w *poolWalker) caseClauses(body *ast.BlockStmt, st ownState, exhaustive bool) (ownState, bool) {
	var merged ownState
	allTerminated := true
	for _, c := range body.List {
		var list []ast.Stmt
		clauseSt := st.clone()
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.scanExpr(e, st)
			}
			list = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				clauseSt, _ = w.stmt(c.Comm, clauseSt)
			}
			list = c.Body
		default:
			continue
		}
		out, terminated := w.stmts(list, clauseSt)
		if terminated {
			continue
		}
		allTerminated = false
		if merged == nil {
			merged = out
		} else {
			merged = mergeOwn(merged, out)
		}
	}
	if !exhaustive {
		allTerminated = false
		if merged == nil {
			merged = st
		} else {
			merged = mergeOwn(merged, st)
		}
	}
	if allTerminated {
		return st, true
	}
	if merged == nil {
		merged = st
	}
	return merged, false
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// ret handles a return statement: returning a pooled value is an
// ownership transfer to the caller and needs //memsnap:owns; then every
// obligation still live leaks.
func (w *poolWalker) ret(s *ast.ReturnStmt, st ownState) {
	for _, e := range s.Results {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if v := w.varOf(x); v != nil && st[v] != nil {
				w.escape(st, v, s, "return", w.node.Owns)
				continue
			}
		case *ast.CallExpr:
			if api := w.call(x, st); api != nil {
				if !w.node.Owns {
					w.reportAt(x,
						"%s is acquired and returned by a function not annotated //memsnap:owns (the caller cannot know it must release)",
						api.what)
				}
				continue
			}
		default:
			w.scanExpr(e, st)
		}
	}
	w.leakCheck(st, 0)
}

// assign handles bindings, rebindings and stores.
func (w *poolWalker) assign(s *ast.AssignStmt, st ownState) {
	// Single call on the right: a potential acquire to bind.
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			api := w.call(call, st)
			if api != nil {
				w.bind(s.Lhs, api, call, st)
			} else {
				w.storeTargets(s.Lhs, st)
			}
			return
		}
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Rhs {
			w.assignOne(s.Lhs[i], s.Rhs[i], s.Tok, st)
		}
		return
	}
	for _, e := range s.Rhs {
		w.scanExpr(e, st)
	}
	w.storeTargets(s.Lhs, st)
}

// assignOne handles one lhs = rhs pair outside the acquire case.
func (w *poolWalker) assignOne(lhs, rhs ast.Expr, tok token.Token, st ownState) {
	if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
		if v := w.varOf(id); v != nil && st[v] != nil {
			switch l := ast.Unparen(lhs).(type) {
			case *ast.Ident:
				if l.Name == "_" {
					return
				}
				// Aliasing: the obligation follows the new name.
				var nv *types.Var
				if tok == token.DEFINE {
					nv, _ = w.info.Defs[l].(*types.Var)
				} else {
					nv = w.varOf(l)
				}
				if nv != nil && nv != v {
					st[nv] = st[v]
					delete(st, v)
				}
			default:
				// Stored into a field, slice element or map: the value
				// now outlives the frame.
				w.escape(st, v, lhs, "store into a longer-lived structure", w.node.Owns)
			}
			return
		}
	}
	w.scanExpr(rhs, st)
}

// bind attaches a fresh obligation from an acquire call to its
// left-hand side.
func (w *poolWalker) bind(lhs []ast.Expr, api *ownAPI, call *ast.CallExpr, st ownState) {
	if api.result >= len(lhs) {
		w.leakAt(&obligation{api: api, site: call, count: 1})
		return
	}
	switch l := ast.Unparen(lhs[api.result]).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			w.leakAt(&obligation{api: api, site: call, count: 1})
			return
		}
		var v *types.Var
		if d, ok := w.info.Defs[l].(*types.Var); ok {
			v = d
		} else {
			v = w.varOf(l)
		}
		if v == nil {
			return
		}
		if old := st[v]; old != nil && !w.settled[v] {
			// Rebinding before release loses the old value.
			w.leakAt(old)
		}
		st[v] = &obligation{api: api, site: call, count: 1, depth: w.depth}
	default:
		// Acquired straight into a field or element: an immediate
		// escape.
		if !w.node.Owns {
			w.reportAt(call,
				"%s is acquired directly into a longer-lived structure by a function not annotated //memsnap:owns",
				api.what)
		}
	}
}

// storeTargets scans non-ident assignment targets for nested events
// (index expressions may contain calls).
func (w *poolWalker) storeTargets(lhs []ast.Expr, st ownState) {
	for _, l := range lhs {
		if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
			w.scanExpr(ix.Index, st)
		}
	}
}

// declStmt handles `var v = pool.Get()` bindings.
func (w *poolWalker) declStmt(s *ast.DeclStmt, st ownState) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 1 {
			if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
				if api := w.call(call, st); api != nil {
					if api.result < len(vs.Names) {
						if v, ok := w.info.Defs[vs.Names[api.result]].(*types.Var); ok {
							st[v] = &obligation{api: api, site: call, count: 1, depth: w.depth}
							continue
						}
					}
					w.leakAt(&obligation{api: api, site: call, count: 1})
				}
				continue
			}
		}
		for _, e := range vs.Values {
			w.scanExpr(e, st)
		}
	}
}

// scanExpr walks an expression for events: calls (acquires whose
// result is dropped leak immediately), composite literals capturing
// pooled values (escapes), and closures capturing them (settled).
func (w *poolWalker) scanExpr(e ast.Expr, st ownState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if api := w.call(x, st); api != nil {
				// A value acquire in a discarding context.
				w.leakAt(&obligation{api: api, site: x, count: 1})
			}
			return false // w.call scanned the arguments
		case *ast.CompositeLit:
			w.compositeEscapes(x, st, w.node.Owns)
			return true
		case *ast.FuncLit:
			w.settleCaptured(x, st)
			return false
		}
		return true
	})
}

// compositeEscapes treats pooled values placed in composite literals
// as escapes: the literal usually outlives the frame (returned,
// stored, queued), and tracking it further is out of scope.
func (w *poolWalker) compositeEscapes(lit *ast.CompositeLit, st ownState, permitted bool) {
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			el = kv.Value
		}
		if id, ok := ast.Unparen(el).(*ast.Ident); ok {
			if v := w.varOf(id); v != nil && st[v] != nil {
				w.escape(st, v, id, "composite literal", permitted)
			}
		}
	}
}

// settleCaptured marks every tracked variable referenced inside n as
// settled: a closure or goroutine took over its lifecycle.
func (w *poolWalker) settleCaptured(n ast.Node, st ownState) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if v := w.varOf(id); v != nil && st[v] != nil {
				w.settled[v] = true
			}
		}
		return true
	})
}

// call processes one call expression's events — receiver retains and
// releases, argument releases, ownership transfers, borrowed uses —
// and returns the API when the call is a value acquire whose result
// the caller should bind (nil otherwise).
func (w *poolWalker) call(call *ast.CallExpr, st ownState) *ownAPI {
	fun := ast.Unparen(call.Fun)

	// A conversion, not a call.
	if tv, ok := w.info.Types[fun]; ok && tv.IsType() {
		for _, a := range call.Args {
			w.scanExpr(a, st)
		}
		return nil
	}

	var key string
	var calleeOwns bool
	for _, fn := range staticCallTarget(w.info, fun) {
		key = funcKey(fn)
		if n := w.prog.FuncByKey(key); n != nil {
			calleeOwns = n.Owns
		}
	}
	api := poolAPIs[key]

	// Builtin append aliases its trailing arguments into the slice.
	isAppend := false
	if id, ok := fun.(*ast.Ident); ok {
		if b, okb := w.info.Uses[id].(*types.Builtin); okb {
			isAppend = b.Name() == "append"
		}
	}

	// Receiver events: retain-style acquires and receiver releases.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if v := w.varOf(id); v != nil {
				if api != nil && api.onRecv {
					if ob := st[v]; ob != nil && ob.api == api {
						ob.count++
					} else {
						st[v] = &obligation{api: api, site: call, count: 1, depth: w.depth}
					}
				} else if ob := st[v]; ob != nil && releaseMatches(ob.api, key, -1) {
					w.release(st, v)
				}
			}
		}
	}

	for i, a := range call.Args {
		switch arg := ast.Unparen(a).(type) {
		case *ast.Ident:
			v := w.varOf(arg)
			if v == nil || st[v] == nil {
				continue
			}
			switch {
			case releaseMatches(st[v].api, key, i):
				w.release(st, v)
			case calleeOwns:
				// Explicit ownership transfer.
				delete(st, v)
			case isAppend && i > 0:
				w.escape(st, v, call, "append", w.node.Owns)
			default:
				// Borrowed for the duration of the call.
			}
		case *ast.CallExpr:
			if innerAPI := w.call(arg, st); innerAPI != nil && !calleeOwns {
				w.leakAt(&obligation{api: innerAPI, site: arg, count: 1})
			}
		case *ast.CompositeLit:
			w.compositeEscapes(arg, st, calleeOwns || w.node.Owns)
		case *ast.UnaryExpr:
			if arg.Op == token.AND {
				if lit, ok := ast.Unparen(arg.X).(*ast.CompositeLit); ok {
					w.compositeEscapes(lit, st, calleeOwns || w.node.Owns)
					continue
				}
			}
			w.scanExpr(a, st)
		default:
			w.scanExpr(a, st)
		}
	}

	if api != nil && !api.onRecv {
		return api
	}
	return nil
}

// prescanDefers settles every variable released by a defer — directly
// (`defer v.Release()`) or inside a deferred closure.
func (w *poolWalker) prescanDefers(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		w.settleIfRelease(d.Call)
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok {
					w.settleIfRelease(c)
				}
				return true
			})
		}
		return false
	})
}

// settleIfRelease marks the subject variable of a release call settled.
func (w *poolWalker) settleIfRelease(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	var key string
	for _, fn := range staticCallTarget(w.info, fun) {
		key = funcKey(fn)
	}
	arg, ok := anyReleaseKey(key)
	if !ok {
		return
	}
	var subject ast.Expr
	if arg == -1 {
		sel, ok := fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		subject = sel.X
	} else if arg < len(call.Args) {
		subject = call.Args[arg]
	}
	if subject == nil {
		return
	}
	if id, ok := ast.Unparen(subject).(*ast.Ident); ok {
		if v := w.varOf(id); v != nil {
			w.settled[v] = true
		}
	}
}

// containsGoto reports whether the body uses goto (the walker's
// block-structured abstraction cannot model it; such functions are
// skipped).
func containsGoto(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.GOTO {
			found = true
		}
		return !found
	})
	return found
}
