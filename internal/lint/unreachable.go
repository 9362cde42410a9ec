package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Unreachable reports shipped code that no program runs: a function or
// method declared in a non-test file that no root reaches.
//
// Roots are every package main's main (cmd/ and the benchmark driver;
// an Example function lives in a _test.go file and is no root), every
// init, every package-level var initialiser, and every
// function whose declaration carries //lint:allow unreachable (what an
// allow keeps, it keeps whole). Edges from a body, nested function
// literals included, are:
//
//   - every use of a function or method, called or taken as a value;
//   - every implementation of an interface method called or taken as a
//     value (the shared class-hierarchy analysis over non-test types);
//   - the methods of a concrete type converted to an interface (an
//     argument, assignment, return, composite-literal element, send or
//     explicit conversion) when that interface has the method's name.
//     A conversion to an empty interface keeps the dynamicNames methods
//     of the type and of everything its fields and elements hold,
//     which is where fmt and encoding/json look for them.
//
// The same walk from every _test.go declaration tells the two findings
// apart: code only tests reach is scaffolding that belongs in a
// _test.go file; code nothing reaches is dead. A package set without a
// main (one package, a subtree) is no program, and nothing is
// reported. A nested module (benchmark/) is read for its roots but not
// reported: it is built and gated on its own.
//
// The same walks also see struct fields, keyed by declaration position
// (one in both universes), and report a field declared in a non-test
// file that reached code writes and no reached code reads. A write is
// the left-hand side of an assignment (op= included), ++ and --, a
// composite-literal field, and a sync/atomic Add, Store, Swap,
// CompareAndSwap, Or or And whose result is discarded; every other use
// is a read. A value converted to an empty interface reads its own
// fields and, below them, the exported ones (what fmt and
// encoding/json see); a struct hashed as a map key or compared with ==
// or != reads every field. The test walk again tells the findings
// apart: a field only tests read is one the test can compute itself; a
// field nothing reads is dead. A CAS loop on a field reads it through
// its own Load, so state only such a loop keeps is not seen.
var Unreachable = &Analyzer{
	Name:       "unreachable",
	Doc:        "every non-test function is reachable from a main, an init or a package-level initialiser, and every field it writes is read",
	RunProgram: runUnreachable,
}

// dynamicNames are the methods the standard library looks up on a
// value handed to it as an empty interface.
var dynamicNames = []string{"String", "GoString", "Format", "Error", "MarshalJSON", "MarshalText"}

func runUnreachable(pass *ProgramPass) {
	prog := pass.Prog
	roots, testRoots := newUses(), newUses()
	hasMain := false
	for _, pkg := range prog.Pkgs {
		allowed, _ := allowedLines(pkg, nil)
		for _, f := range pkg.Files {
			to := roots
			if f.Test {
				to = testRoots
			}
			for _, decl := range f.AST.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					pos := pkg.Fset.Position(d.Name.Pos())
					isMain := d.Recv == nil && d.Name.Name == "main" && pkg.Name == "main"
					hasMain = hasMain || isMain && !f.Test
					switch {
					case d.Body == nil:
					case d.Recv == nil && d.Name.Name == "init":
						// Walked here: a package's inits share one key.
						prog.refs(pkg, d.Body, nil, to)
					case f.Test || isMain || allowed[lineKey{pos.Filename, pos.Line}][pass.rule]:
						to.funcs = append(to.funcs, fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						prog.refs(pkg, d, nil, to)
					}
				}
			}
		}
	}
	if !hasMain {
		return
	}
	memo := map[*FuncNode]*uses{}
	reached, fields := prog.reach(roots, memo)
	byTests, testFields := prog.reach(testRoots, memo)
	for _, node := range prog.Funcs() {
		if node.File.Test || node.Pkg.Nested || reached[node] || node.Decl.Recv == nil && node.Decl.Name.Name == "init" {
			continue
		}
		why := "no test reaches it either: delete it"
		if byTests[node] {
			why = "only tests reach it: move it into a _test.go file"
		}
		pass.Reportf(node.Pkg, node.Decl.Name,
			"%s is unreachable from every main, init and package-level initialiser; %s (design rule: ship only code something runs)",
			node.Decl.Name.Name, why)
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			if f.Test || pkg.Nested {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				if field, ok := n.(*ast.Field); ok {
					for _, name := range field.Names {
						if fields[name.Pos()] != written {
							continue
						}
						why := "nothing reads it: delete it"
						if testFields[name.Pos()]&read != 0 {
							why = "only tests read it: the test computes it itself"
						}
						pass.Reportf(pkg, name,
							"field %s is written but never read by code a main, init or package-level initialiser reaches; %s (design rule: ship only state something reads)",
							name.Name, why)
					}
				}
				return true
			})
		}
	}
}

// access is how reached code uses a field.
type access uint8

const (
	read access = 1 << iota
	written
)

// uses is what code under one node refers to: the functions it may run
// and how it uses each field, keyed by the field's declaration (the
// same position in both universes).
type uses struct {
	funcs  []*types.Func
	fields map[token.Pos]access
}

func newUses() *uses { return &uses{fields: map[token.Pos]access{}} }

// reach returns every node the roots reach and how the roots and those
// nodes use each field, memoising each body's uses in memo.
func (prog *Program) reach(roots *uses, memo map[*FuncNode]*uses) (map[*FuncNode]bool, map[token.Pos]access) {
	seen := map[*FuncNode]bool{}
	fields := map[token.Pos]access{}
	var stack []*FuncNode
	visit := func(u *uses) {
		for _, fn := range u.funcs {
			if fn != nil {
				stack = append(stack, prog.funcs[funcKey(fn)])
			}
		}
		for pos, a := range u.fields {
			fields[pos] |= a
		}
	}
	visit(roots)
	for len(stack) > 0 {
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if node == nil || seen[node] {
			continue
		}
		seen[node] = true
		u := memo[node]
		if u == nil {
			u = newUses()
			prog.refs(node.Pkg, node.Decl.Body, node.Obj.Type().(*types.Signature).Results(), u)
			memo[node] = u
		}
		visit(u)
	}
	return seen, fields
}

// refs adds to u the functions code under n may run (the edges above)
// and the fields it reads and writes; results types the enclosing
// function's return statements.
func (prog *Program) refs(pkg *Package, n ast.Node, results *types.Tuple, u *uses) {
	info := pkg.Info
	convert := func(dst types.Type, e ast.Expr) {
		if dst == nil {
			return // the blank identifier
		}
		src := info.Types[e].Type
		it, ok := dst.Underlying().(*types.Interface)
		if !ok || src == nil || types.IsInterface(src) {
			return
		}
		if it.NumMethods() == 0 {
			u.dynamic(src, true)
		}
		for i := 0; i < it.NumMethods(); i++ {
			if fn := lookupMethod(src, it.Method(i).Name(), pkg.Types); fn != nil {
				u.funcs = append(u.funcs, fn)
			}
		}
	}
	// write records e as a write when it selects a field and keeps the
	// selector from counting as a read.
	writes := map[ast.Expr]bool{}
	write := func(e ast.Expr) {
		e = ast.Unparen(e)
		if s, ok := e.(*ast.SelectorExpr); ok && info.Selections[s] != nil && info.Selections[s].Kind() == types.FieldVal {
			u.fields[fieldPos(info.Selections[s].Obj())] |= written
			writes[e] = true
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			prog.refs(pkg, x.Body, info.Types[x].Type.(*types.Signature).Results(), u)
			return false
		case *ast.Ident:
			if fn, ok := info.Uses[x].(*types.Func); ok {
				u.funcs = append(u.funcs, fn)
			}
		case *ast.SelectorExpr:
			sel, ok := info.Selections[x]
			switch {
			case !ok:
			case types.IsInterface(sel.Recv()):
				u.funcs = append(u.funcs, prog.implementations(sel.Recv(), sel.Obj().Name())...)
			case sel.Kind() == types.FieldVal && !writes[x]:
				u.fields[fieldPos(sel.Obj())] |= read
			}
		case *ast.CallExpr:
			tv := info.Types[ast.Unparen(x.Fun)]
			sig, _ := tv.Type.(*types.Signature)
			switch {
			case tv.IsType() && len(x.Args) == 1:
				convert(tv.Type, x.Args[0])
			case sig != nil:
				np := sig.Params().Len()
				for i, arg := range x.Args {
					if sig.Variadic() && i >= np-1 && !x.Ellipsis.IsValid() {
						convert(sig.Params().At(np-1).Type().(*types.Slice).Elem(), arg)
					} else if i < np {
						convert(sig.Params().At(i).Type(), arg)
					}
				}
			}
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok {
				write(atomicOperand(info, call))
			}
		case *ast.IncDecStmt:
			write(x.X)
		case *ast.AssignStmt:
			for _, e := range x.Lhs {
				write(e)
			}
			if x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs) {
				for i, e := range x.Lhs {
					convert(info.Types[e].Type, x.Rhs[i])
				}
			}
		case *ast.IndexExpr:
			if t := info.Types[x.X].Type; t != nil {
				if m, ok := t.Underlying().(*types.Map); ok {
					u.dynamic(m.Key(), false)
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				u.dynamic(info.Types[x.X].Type, false)
			}
		case *ast.ValueSpec:
			for _, e := range x.Values {
				if x.Type != nil {
					convert(info.Types[x.Type].Type, e)
				}
			}
		case *ast.ReturnStmt:
			if results != nil && results.Len() == len(x.Results) {
				for i, e := range x.Results {
					convert(results.At(i).Type(), e)
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.Types[x.Chan].Type.Underlying().(*types.Chan); ok {
				convert(ch.Elem(), x.Value)
			}
		case *ast.CompositeLit:
			convertElems(info, x, convert, u)
		}
		return true
	})
}

// fieldPos is a field's identity in both universes: its declaration.
func fieldPos(obj types.Object) token.Pos { return obj.(*types.Var).Origin().Pos() }

// atomicMutator matches the sync/atomic functions and methods that
// write their operand.
var atomicMutator = regexp.MustCompile(`^(Add|Store|Swap|CompareAndSwap|Or|And)`)

// atomicOperand returns what a sync/atomic mutator call writes — x.f
// in x.f.Add(d) and in atomic.AddInt64(&x.f, d) — or nil.
func atomicOperand(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if sel == nil {
		return nil
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || !atomicMutator.MatchString(fn.Name()) {
		return nil
	}
	if info.Selections[sel] != nil {
		return sel.X
	}
	if addr, ok := call.Args[0].(*ast.UnaryExpr); ok && addr.Op == token.AND {
		return addr.X
	}
	return nil
}

// convertElems applies convert to each element of a composite literal
// against the field, element or key type it initialises, and records
// each struct field it sets as a write.
func convertElems(info *types.Info, lit *ast.CompositeLit, convert func(types.Type, ast.Expr), u *uses) {
	t := info.Types[lit].Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	for i, e := range lit.Elts {
		kv, keyed := e.(*ast.KeyValueExpr)
		if keyed {
			e = kv.Value
		}
		switch ut := t.Underlying().(type) {
		case *types.Struct:
			var f *types.Var
			if keyed {
				f, _ = info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
			} else if i < ut.NumFields() {
				f = ut.Field(i)
			}
			if f != nil {
				u.fields[fieldPos(f)] |= written
				convert(f.Type(), e)
			}
		case *types.Slice:
			convert(ut.Elem(), e)
		case *types.Array:
			convert(ut.Elem(), e)
		case *types.Map:
			if keyed {
				convert(ut.Key(), kv.Key)
			}
			convert(ut.Elem(), e)
		}
	}
}

// dynamic adds what a reflective reader may touch on a value of type
// t. With methods (a conversion to an empty interface, where fmt and
// encoding/json look) that is the dynamicNames methods of t and of
// everything it holds, the fields of t itself and the exported fields
// below them (through a pointer, the exported ones only); without (a
// map key's hash, == or !=), every field the comparison reaches.
func (u *uses) dynamic(t types.Type, methods bool) {
	// level is which fields of a struct are read: 2 all, 1 the
	// exported ones, 0 none; seen holds the highest level walked + 1.
	seen := map[types.Type]int{}
	var walk func(t types.Type, level int)
	walk = func(t types.Type, level int) {
		if t == nil || seen[t] > level {
			return
		}
		seen[t] = level + 1
		if named, ok := t.(*types.Named); ok && methods {
			for _, name := range dynamicNames {
				if fn := lookupMethod(named, name, nil); fn != nil {
					u.funcs = append(u.funcs, fn)
				}
			}
		}
		switch x := t.Underlying().(type) {
		case *types.Pointer:
			if methods {
				walk(x.Elem(), min(level, 1))
			}
		case *types.Slice:
			walk(x.Elem(), level)
		case *types.Array:
			walk(x.Elem(), level)
		case *types.Map:
			walk(x.Key(), level)
			walk(x.Elem(), level)
		case *types.Struct:
			for i := 0; i < x.NumFields(); i++ {
				f, next := x.Field(i), 0
				if !methods || level == 2 || level == 1 && f.Exported() {
					u.fields[fieldPos(f)] |= read
					next = 1
				}
				if !methods {
					next = 2
				}
				walk(f.Type(), next)
			}
		}
	}
	walk(t, 2)
}
