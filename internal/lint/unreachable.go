package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Unreachable reports shipped code that no program runs: a function or
// method declared in a non-test file that no root reaches.
//
// Roots are every package main's main (cmd/, examples/, the benchmark
// driver), every init, every package-level var initialiser, and every
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
var Unreachable = &Analyzer{
	Name:       "unreachable",
	Doc:        "every non-test function is reachable from a main, an init or a package-level initialiser",
	RunProgram: runUnreachable,
}

// dynamicNames are the methods the standard library looks up on a
// value handed to it as an empty interface.
var dynamicNames = []string{"String", "GoString", "Format", "Error", "MarshalJSON", "MarshalText"}

func runUnreachable(pass *ProgramPass) {
	prog := pass.Prog
	var roots, testRoots []*types.Func
	hasMain := false
	for _, pkg := range prog.Pkgs {
		allowed := allowedLines(pkg)
		for _, f := range pkg.Files {
			to := &roots
			if f.Test {
				to = &testRoots
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
						*to = append(*to, prog.refs(pkg, d.Body, nil)...)
					case f.Test || isMain || allowed[lineKey{pos.Filename, pos.Line}][pass.rule]:
						*to = append(*to, fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						*to = append(*to, prog.refs(pkg, d, nil)...)
					}
				}
			}
		}
	}
	if !hasMain {
		return
	}
	succ := map[*FuncNode][]*FuncNode{}
	reached := prog.reach(roots, succ)
	byTests := prog.reach(testRoots, succ)
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
}

// reach returns every node the roots reach, memoising each body's
// edges in succ.
func (prog *Program) reach(roots []*types.Func, succ map[*FuncNode][]*FuncNode) map[*FuncNode]bool {
	seen := map[*FuncNode]bool{}
	var stack []*FuncNode
	for _, fn := range roots {
		if fn != nil {
			stack = append(stack, prog.funcs[funcKey(fn)])
		}
	}
	for len(stack) > 0 {
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if node == nil || seen[node] {
			continue
		}
		seen[node] = true
		next, ok := succ[node]
		if !ok {
			for _, fn := range prog.refs(node.Pkg, node.Decl.Body, node.Obj.Type().(*types.Signature).Results()) {
				next = append(next, prog.funcs[funcKey(fn)])
			}
			succ[node] = next
		}
		stack = append(stack, next...)
	}
	return seen
}

// refs lists the functions code under n may run (the edges above);
// results types the enclosing function's return statements.
func (prog *Program) refs(pkg *Package, n ast.Node, results *types.Tuple) []*types.Func {
	info := pkg.Info
	var out []*types.Func
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
			out = append(out, dynamicMethods(src, map[types.Type]bool{})...)
		}
		for i := 0; i < it.NumMethods(); i++ {
			if fn := lookupMethod(src, it.Method(i).Name(), pkg.Types); fn != nil {
				out = append(out, fn)
			}
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			out = append(out, prog.refs(pkg, x.Body, info.Types[x].Type.(*types.Signature).Results())...)
			return false
		case *ast.Ident:
			if fn, ok := info.Uses[x].(*types.Func); ok {
				out = append(out, fn)
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && types.IsInterface(sel.Recv()) {
				out = append(out, prog.implementations(sel.Recv(), sel.Obj().Name())...)
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
		case *ast.AssignStmt:
			if x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs) {
				for i, e := range x.Lhs {
					convert(info.Types[e].Type, x.Rhs[i])
				}
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
			convertElems(info, x, convert)
		}
		return true
	})
	return out
}

// convertElems applies convert to each element of a composite literal
// against the field, element or key type it initialises.
func convertElems(info *types.Info, lit *ast.CompositeLit, convert func(types.Type, ast.Expr)) {
	t := info.Types[lit].Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	for i, e := range lit.Elts {
		kv, keyed := e.(*ast.KeyValueExpr)
		if keyed {
			e = kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if keyed {
				if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
					convert(v.Type(), e)
				}
			} else if i < u.NumFields() {
				convert(u.Field(i).Type(), e)
			}
		case *types.Slice:
			convert(u.Elem(), e)
		case *types.Array:
			convert(u.Elem(), e)
		case *types.Map:
			if keyed {
				convert(u.Key(), kv.Key)
			}
			convert(u.Elem(), e)
		}
	}
}

// dynamicMethods lists the dynamicNames methods of t and of every type
// its fields, elements and keys hold.
func dynamicMethods(t types.Type, seen map[types.Type]bool) []*types.Func {
	if seen[t] {
		return nil
	}
	seen[t] = true
	var out []*types.Func
	if named, ok := t.(*types.Named); ok {
		for _, name := range dynamicNames {
			if fn := lookupMethod(named, name, nil); fn != nil {
				out = append(out, fn)
			}
		}
	}
	var inner []types.Type
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		inner = append(inner, u.Elem())
	case *types.Slice:
		inner = append(inner, u.Elem())
	case *types.Array:
		inner = append(inner, u.Elem())
	case *types.Map:
		inner = append(inner, u.Key(), u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			inner = append(inner, u.Field(i).Type())
		}
	}
	for _, t := range inner {
		out = append(out, dynamicMethods(t, seen)...)
	}
	return out
}
