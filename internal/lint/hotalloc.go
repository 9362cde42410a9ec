package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc makes the 0-allocs/op property of the persist and network
// hot paths a compile-gated invariant instead of a bench-time counter:
// every function annotated //memsnap:hotpath must be transitively free
// of allocation sites, walking the shared conservative call graph
// (static calls exactly, interface calls by class-hierarchy analysis,
// //memsnap:coldpath pruning retry/catch-up boundaries).
//
// Allocation sites flagged inside a reachable function:
//
//   - map, slice and &composite literals
//   - make and new
//   - append to a slice declared fresh in the same function (nil or
//     empty literal — its capacity grows on every call; appends into
//     caller-owned or struct-field scratch amortize to zero and pass)
//   - string <-> []byte/[]rune conversions
//   - explicit conversions of concrete values to interface types
//     (boxing)
//   - calls into fmt (every call boxes its operands) and the other
//     known-allocating stdlib entry points (errors.New, strings.Join,
//     strconv.Format*, ...)
//   - capturing function literals and go statements
//
// Known limitations, by design: calls through func-typed values are
// not traversed, and stdlib internals outside the deny-list are
// trusted (the bench-gate ceilings in CI keep them honest). Cold
// sub-paths that allocate deliberately (pool misses, error paths,
// panics) carry //lint:allow hotalloc escapes with reasons.
var HotAlloc = &Analyzer{
	Name:       "hotalloc",
	Doc:        "functions marked //memsnap:hotpath (and everything they transitively call) must be free of allocation sites",
	RunProgram: runHotAlloc,
}

// allocStdlib are non-fmt stdlib functions known to allocate per call.
// Key is the funcKey form ("pkgpath.Name" / "pkgpath.(Recv).Name").
var allocStdlib = map[string]bool{
	"errors.New":               true,
	"strings.Join":             true,
	"strings.Repeat":           true,
	"strings.Replace":          true,
	"strings.ReplaceAll":       true,
	"strings.ToUpper":          true,
	"strings.ToLower":          true,
	"strings.Fields":           true,
	"strings.Split":            true,
	"strings.SplitN":           true,
	"strings.Clone":            true,
	"strings.(Builder).String": true,
	"strconv.Quote":            true,
	"strconv.QuoteRune":        true,
	"strconv.FormatInt":        true,
	"strconv.FormatUint":       true,
	"strconv.FormatFloat":      true,
	"strconv.FormatBool":       true,
	"strconv.Itoa":             true,
	"bytes.Clone":              true,
	"slices.Clone":             true,
	"maps.Clone":               true,
}

func runHotAlloc(pass *ProgramPass) {
	prog := pass.Prog

	// Roots in deterministic order.
	var roots []*FuncNode
	for _, node := range prog.Funcs() {
		if node.Hot && !node.File.Test {
			roots = append(roots, node)
		}
	}

	// BFS from each root so the diagnostic can name the shortest call
	// chain that makes a site hot. A site reachable from several roots
	// is reported once per distinct (position, message) by the dedup in
	// Run, and the chain shown is the first root's.
	type visit struct {
		node  *FuncNode
		chain string
	}
	reported := map[token.Pos]bool{}
	seen := map[*FuncNode]bool{}
	var queue []visit
	for _, root := range roots {
		if !seen[root] {
			seen[root] = true
			queue = append(queue, visit{root, root.Decl.Name.Name})
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		checkAllocSites(pass, v.node, v.chain, reported)
		for _, callee := range v.node.Callees {
			if seen[callee] || callee.Cold || callee.File.Test {
				continue
			}
			seen[callee] = true
			queue = append(queue, visit{callee, v.chain + " → " + callee.Decl.Name.Name})
		}
	}
}

// checkAllocSites reports every allocation site in node's body. chain
// is the call path from the hot root for the diagnostic.
func checkAllocSites(pass *ProgramPass, node *FuncNode, chain string, reported map[token.Pos]bool) {
	pkg := node.Pkg
	info := pkg.Info
	fresh := freshSlices(info, node.Decl.Body)
	mapKeys := mapIndexConversions(info, node.Decl.Body)
	report := func(n ast.Node, what string) {
		if reported[n.Pos()] {
			return
		}
		reported[n.Pos()] = true
		pass.Reportf(pkg, n,
			"%s on the hot path %s (design rule: //memsnap:hotpath code is allocation-free; cold sub-paths take //lint:allow hotalloc with a reason)",
			what, chain)
	}

	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			switch info.Types[x].Type.Underlying().(type) {
			case *types.Map:
				report(x, "map literal allocates")
			case *types.Slice:
				report(x, "slice literal allocates")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					report(x, "&composite literal allocates")
				}
			}
		case *ast.GoStmt:
			report(x, "go statement allocates a goroutine")
		case *ast.FuncLit:
			if capturesVariables(info, x) {
				report(x, "capturing func literal allocates a closure")
			}
		case *ast.BinaryExpr:
			// Constant concatenation folds at compile time.
			if x.Op == token.ADD && isStringType(info.Types[x.X].Type) && info.Types[x].Value == nil {
				report(x, "string concatenation allocates")
			}
		case *ast.CallExpr:
			if !mapKeys[x] {
				checkAllocCall(info, x, fresh, report)
			}
		}
		return true
	})
}

// mapIndexConversions collects []byte→string conversions used directly
// as a map index (m[string(b)]): the compiler guarantees these do not
// copy, so they are exempt from the conversion-allocates rule.
func mapIndexConversions(info *types.Info, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	keys := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		if xt := info.Types[ix.X].Type; xt == nil {
			return true
		} else if _, isMap := xt.Underlying().(*types.Map); !isMap {
			return true
		}
		call, ok := ast.Unparen(ix.Index).(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && isStringType(tv.Type) {
			keys[call] = true
		}
		return true
	})
	return keys
}

// checkAllocCall classifies one call expression: builtin allocators,
// allocating conversions, and deny-listed stdlib calls.
func checkAllocCall(info *types.Info, call *ast.CallExpr, fresh map[*types.Var]bool, report func(ast.Node, string)) {
	fun := ast.Unparen(call.Fun)

	// Conversions.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		dst := tv.Type
		if len(call.Args) != 1 {
			return
		}
		src := info.Types[call.Args[0]].Type
		if src == nil {
			return
		}
		switch {
		case isStringType(dst) && isByteOrRuneSlice(src):
			report(call, "[]byte/[]rune→string conversion allocates")
		case isByteOrRuneSlice(dst) && isStringType(src):
			report(call, "string→[]byte/[]rune conversion allocates")
		case types.IsInterface(dst) && !types.IsInterface(src) && src != types.Typ[types.UntypedNil]:
			report(call, "conversion to interface boxes the value and allocates")
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				switch info.Types[call].Type.Underlying().(type) {
				case *types.Map:
					report(call, "make(map) allocates")
				case *types.Chan:
					report(call, "make(chan) allocates")
				default:
					report(call, "make allocates")
				}
			case "new":
				report(call, "new allocates")
			case "append":
				if base, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
					if v, ok := info.Uses[base].(*types.Var); ok && fresh[v] {
						report(call, "append to a fresh slice grows per call (unknown capacity)")
					}
				}
			}
			return
		}
	}

	// Deny-listed stdlib calls.
	for _, fn := range staticCallTarget(info, fun) {
		if fn.Pkg() == nil {
			continue
		}
		key := funcKey(fn)
		if fn.Pkg().Path() == "fmt" {
			report(call, "fmt."+fn.Name()+" boxes its operands and allocates")
		} else if allocStdlib[key] {
			report(call, key+" allocates")
		}
	}
}

// staticCallTarget resolves fun to its exact *types.Func target when
// the call is static (no CHA here: implementations are traversed as
// graph nodes and checked in their own right).
func staticCallTarget(info *types.Info, fun ast.Expr) []*types.Func {
	switch x := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[x].(*types.Func); ok {
			return []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return []*types.Func{fn}
			}
			return nil
		}
		if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
			return []*types.Func{fn}
		}
	}
	return nil
}

// freshSlices collects the local slice variables declared with no
// backing capacity — `var s []T` or `s := []T{}` — whose appends
// therefore allocate on (almost) every call. Slices arriving through
// parameters, fields or calls are assumed to be reused scratch.
func freshSlices(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	fresh := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeclStmt:
			gd, ok := x.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
							fresh[v] = true
						}
					}
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE || len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				lit, ok := ast.Unparen(x.Rhs[i]).(*ast.CompositeLit)
				if !ok || len(lit.Elts) != 0 {
					continue
				}
				if v, ok := info.Defs[id].(*types.Var); ok {
					if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
						fresh[v] = true
					}
				}
			}
		}
		return true
	})
	return fresh
}

// capturesVariables reports whether the literal references a variable
// declared outside itself (a closure that must heap-allocate its
// environment). Non-capturing literals compile to static functions.
func capturesVariables(info *types.Info, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captured.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			captures = true
			return false
		}
		return true
	})
	return captures
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isByteOrRuneSlice reports whether t is []byte or []rune.
func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32
}
