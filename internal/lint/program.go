package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file grows the suite from per-file AST rules to whole-program
// analysis: a Program aggregates every loaded package, indexes every
// function declaration under a stable cross-package key, records the
// //memsnap:* annotations, and builds a conservative call graph from
// go/types — static calls resolved exactly, interface method calls
// resolved by class-hierarchy analysis over the module's named types.
// The graph is shared by the program-level analyzers (hotalloc,
// poolown).
//
// Function annotations (directive comments in a declaration's doc
// block):
//
//	//memsnap:hotpath   the function and everything it transitively
//	                    calls must be free of allocation sites
//	                    (enforced by hotalloc)
//	//memsnap:coldpath  prune hot-path traversal at this boundary: the
//	                    function is reachable from a hot path but is
//	                    not steady-state (retry, catch-up, the far end
//	                    of a simulated link)
//	//memsnap:owns      the function takes or transfers ownership of
//	                    pooled values: poolown permits Get results to
//	                    escape through it (returned, stored, queued)
//
// Cross-package identity: the loader type-checks each module package
// twice (once through the import graph, once as the analysis package
// with its test files), so *types.Func pointers are not stable across
// packages. FuncNodes are therefore keyed by the printable form
// "pkgpath.(Recv).Name", which is identical in both universes.

// FuncNode is one module function in the program's call graph.
type FuncNode struct {
	// Key is the stable identity "pkgpath.(Recv).Name".
	Key string
	Pkg *Package
	// File is the source file holding the declaration.
	File *File
	Decl *ast.FuncDecl
	// Obj is the function's types object in its package's universe.
	Obj *types.Func

	// Hot, Cold, Owns mirror the //memsnap:hotpath, //memsnap:coldpath
	// and //memsnap:owns annotations.
	Hot, Cold, Owns bool

	// Callees are the functions this one may call, in source order,
	// deduplicated: static callees plus every module implementation of
	// each interface method called (class-hierarchy analysis).
	Callees []*FuncNode
}

// Program is the whole-module view shared by program analyzers.
type Program struct {
	Pkgs []*Package

	// funcs indexes every declared module function by stable key.
	funcs map[string]*FuncNode
	// namedTypes lists every named (non-interface) type declared in a
	// non-test file, for CHA.
	namedTypes []*types.Named
}

// FuncByKey returns the node for a stable function key, or nil.
func (prog *Program) FuncByKey(key string) *FuncNode { return prog.funcs[key] }

// Funcs returns every function node in deterministic key order.
func (prog *Program) Funcs() []*FuncNode {
	keys := make([]string, 0, len(prog.funcs))
	for k := range prog.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*FuncNode, 0, len(keys))
	for _, k := range keys {
		out = append(out, prog.funcs[k])
	}
	return out
}

// funcKey builds the stable cross-universe identity of fn:
// "pkgpath.Name" for package functions, "pkgpath.(Recv).Name" for
// methods (pointerness of the receiver is erased — Go permits one
// method set per name anyway). Generic instantiations collapse onto
// their origin.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	var b strings.Builder
	if fn.Pkg() != nil {
		b.WriteString(fn.Pkg().Path())
		b.WriteString(".")
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			b.WriteString("(")
			b.WriteString(named.Obj().Name())
			b.WriteString(").")
		}
	}
	b.WriteString(fn.Name())
	return b.String()
}

// hasDirective reports whether the declaration's doc block carries the
// given //memsnap:<name> directive.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "memsnap:"+name {
			return true
		}
	}
	return false
}

// NewProgram indexes the packages and builds the call graph.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, funcs: map[string]*FuncNode{}}

	// Pass 1: index declarations and named types.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{
					Key:  funcKey(obj),
					Pkg:  pkg,
					File: f,
					Decl: fd,
					Obj:  obj,
					Hot:  hasDirective(fd.Doc, "hotpath"),
					Cold: hasDirective(fd.Doc, "coldpath"),
					Owns: hasDirective(fd.Doc, "owns"),
				}
				// Test-file twins of a declaration never displace the
				// primary one; otherwise last writer wins (external test
				// packages have distinct keys via their _test path).
				if prev, exists := prog.funcs[node.Key]; !exists || prev.File.Test {
					prog.funcs[node.Key] = node
				}
			}
		}
		if strings.HasSuffix(pkg.Name, "_test") || pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) || strings.HasSuffix(pkg.Fset.Position(tn.Pos()).Filename, "_test.go") {
				continue
			}
			prog.namedTypes = append(prog.namedTypes, named)
		}
	}

	// Pass 2: edges.
	for _, node := range prog.funcs {
		prog.buildEdges(node)
	}
	return prog
}

// buildEdges collects node's callees: every call expression in the
// body (nested function literals included — they run on behalf of the
// declaring function or capture its frame either way).
func (prog *Program) buildEdges(node *FuncNode) {
	info := node.Pkg.Info
	seen := map[*FuncNode]bool{}
	add := func(n *FuncNode) {
		if n != nil && n != node && !seen[n] {
			seen[n] = true
			node.Callees = append(node.Callees, n)
		}
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, fn := range prog.callees(info, call) {
			add(prog.funcs[funcKey(fn)])
		}
		return true
	})
}

// callees resolves the possible targets of one call expression:
// nothing for conversions, builtins and func-typed values; the exact
// target for static calls; every module implementation for interface
// method calls.
func (prog *Program) callees(info *types.Info, call *ast.CallExpr) []*types.Func {
	fun := ast.Unparen(call.Fun)
	// A conversion, not a call.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return nil
	}
	switch x := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[x].(*types.Func); ok {
			return []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return prog.implementations(sel.Recv(), fn.Name())
			}
			return []*types.Func{fn}
		}
		// Qualified package call (pkg.Fn).
		if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
			return []*types.Func{fn}
		}
	}
	return nil
}

// implementations is the CHA step: every named type declared in a
// module non-test file whose method set (value or pointer) has each
// method of iface contributes its method named name. Test doubles are
// left out, so no production function has one as a callee. Methods
// match by name and printed signature rather than by types.Implements:
// an interface whose methods name its own package's types
// (shard.Commit) is a different types.Type in each of the loader's two
// universes, while its printed form is the same in both.
func (prog *Program) implementations(iface types.Type, name string) []*types.Func {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, named := range prog.namedTypes {
		if implements(named, it) {
			if fn := lookupMethod(named, name, named.Obj().Pkg()); fn != nil {
				out = append(out, fn)
			}
		}
	}
	return out
}

// implements reports whether *named has every method of it, each with
// the same printed signature; an unexported method must also come from
// the interface's package.
func implements(named *types.Named, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		fn := lookupMethod(named, m.Name(), named.Obj().Pkg())
		if fn == nil || sigKey(fn) != sigKey(m) ||
			(!m.Exported() && fn.Pkg().Path() != m.Pkg().Path()) {
			return false
		}
	}
	return true
}

// sigKey prints fn's parameter and result types, without names, in the
// full-path form that is the same in both universes.
func sigKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), nil))
			b.WriteString(",")
		}
		b.WriteString(";")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// lookupMethod returns the method name in the method set of *t
// (promoted methods included), or nil.
func lookupMethod(t types.Type, name string, pkg *types.Package) *types.Func {
	if _, isPtr := t.(*types.Pointer); !isPtr {
		t = types.NewPointer(t)
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
	fn, _ := obj.(*types.Func)
	return fn
}

// ProgramPass carries one program analyzer's run.
type ProgramPass struct {
	Prog   *Program
	rule   string
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos, located through the shared
// file set.
func (p *ProgramPass) Reportf(pkg *Package, pos ast.Node, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     pkg.Fset.Position(pos.Pos()),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}
