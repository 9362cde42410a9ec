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
// function declaration under a stable cross-package key, and resolves
// interface method calls by class-hierarchy analysis over the module's
// named types. The unreachable analyzer walks it.
//
// Cross-package identity: the loader type-checks each module package
// twice (once through the import graph, once as the analysis package
// with its test files), so *types.Func pointers are not stable across
// packages. FuncNodes are therefore keyed by the printable form
// "pkgpath.(Recv).Name", which is identical in both universes.

// FuncNode is one module function declaration.
type FuncNode struct {
	// Key is the stable identity "pkgpath.(Recv).Name".
	Key string
	Pkg *Package
	// File is the source file holding the declaration.
	File *File
	Decl *ast.FuncDecl
	// Obj is the function's types object in its package's universe.
	Obj *types.Func
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

// NewProgram indexes the packages' function declarations and named
// types.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, funcs: map[string]*FuncNode{}}

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
	return prog
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
