package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// faultPathExempt lists the packages that implement the simulated MMU
// and may therefore touch physical frames directly. Everyone else must
// go through the vm.Thread access API (Write/Read/PageForWrite/
// PageForRead) so minor faults fire and dirty-set tracking stays
// sound.
var faultPathExempt = map[string]bool{
	"memsnap/internal/mem":       true,
	"memsnap/internal/vm":        true,
	"memsnap/internal/pagetable": true,
}

// faultPathMethods are the frame accessors client packages must not
// call, by receiver type in package mem. On PhysMem: frame duplication
// (Copy), page metadata with mutable tracking flags (Page), and
// allocator entry points that mint frames outside any address space
// (Alloc, Free). On Page: the raw frame bytes it carries (Data) — a
// dirty record hands clients a *mem.Page.
var faultPathMethods = map[string]map[string]bool{
	"PhysMem": {
		"Copy":  true,
		"Page":  true,
		"Alloc": true,
		"Free":  true,
	},
	"Page": {
		"Data": true,
	},
}

// chargeBacking registers the simulated hardware types whose exported
// methods must charge virtual time before touching backing state:
// package path -> receiver type name -> backing state fields. The
// lintfixtures entry is the analyzer's own test double.
var chargeBacking = map[string]map[string][]string{
	"memsnap/internal/disk": {
		"Device": {"data"},
		"Array":  {"devices"},
	},
	"memsnap/internal/replica": {
		"Link": {"nextFree"},
	},
	"memsnap/internal/lintfixtures/faultdev": {
		"SimDev": {"backing"},
	},
}

// chargeTouchMethods are the state accessors that count as touching
// backing state when called through a backing field.
var chargeTouchMethods = map[string]bool{
	"readAt":       true,
	"writeAt":      true,
	"SubmitRead":   true,
	"SubmitWrite":  true,
	"submitWriteV": true,
	"PeekAt":       true,
	"CutPower":     true,
}

// FaultPath enforces two fault-path invariants. First, direct use of
// mem.PhysMem and mem.Page frame accessors outside the MMU packages:
// writing frame bytes behind the vm.Thread API's back skips the
// minor-fault path, so
// the write never lands in a dirty set and the next uCheckpoint
// silently misses it (PAPER.md §3: dirty-set tracking is the whole
// persistence contract). Second, charge discipline on the simulated
// hardware (disk.Device, disk.Array, replica.Link): every exported
// method that touches backing state must charge virtual time —
// accept an `at time.Duration` or *sim.Clock parameter, or consult
// the receiver's cost model before the access — or the latency model
// silently grows zero-cost fast paths.
var FaultPath = &Analyzer{
	Name: "faultpath",
	Doc:  "all region access through the MMU fault path; all device/link state access charges sim.Clock first",
	Run:  runFaultPath,
}

func runFaultPath(pass *Pass) {
	runChargeDiscipline(pass)
	pkg := pass.Pkg
	if faultPathExempt[pkg.Path] {
		return
	}
	for _, f := range pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := pkg.Info.Selections[sel]
			if s == nil {
				return true
			}
			fn, ok := s.Obj().(*types.Func)
			if !ok {
				return true
			}
			recv := memReceiver(fn)
			if !faultPathMethods[recv][fn.Name()] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"(*mem.%s).%s bypasses the simulated MMU: writes skip minor faults and dirty-set tracking, so the next uCheckpoint misses them — use the vm.Thread access API (design rule: all region access through the fault path)",
				recv, fn.Name())
			return true
		})
	}
}

// runChargeDiscipline checks the registered device types' exported
// methods: a touch of backing state (a chargeTouchMethods call rooted
// at a backing field, or an assignment to one) must be preceded by a
// virtual-time charge — an `at time.Duration` or *sim.Clock parameter
// anywhere in the signature, or a reference to the receiver's costs
// field earlier in the body.
func runChargeDiscipline(pass *Pass) {
	pkg := pass.Pkg
	byType := chargeBacking[pkg.Path]
	if byType == nil {
		return
	}
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			typeName := receiverTypeName(fd)
			fields, ok := byType[typeName]
			if !ok {
				continue
			}
			recv := receiverIdent(fd)
			if recv == "" || recv == "_" {
				continue
			}
			backing := map[string]bool{}
			for _, b := range fields {
				backing[b] = true
			}
			if hasChargeParam(pkg, fd) {
				continue
			}
			touchPos := firstBackingTouch(fd.Body, recv, backing)
			if !touchPos.IsValid() {
				continue
			}
			if costsRefBefore(fd.Body, recv, touchPos) {
				continue
			}
			pass.Reportf(fd.Name.Pos(),
				"(*%s.%s).%s touches backing device state without charging virtual time: accept an `at time.Duration` or *sim.Clock parameter, or consult the cost model before the access (design rule: every device/link operation charges sim.Clock before touching backing state)",
				pkg.Name, typeName, fd.Name.Name)
		}
	}
}

// receiverTypeName extracts the receiver's type name, stripping any
// pointer.
func receiverTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// receiverIdent extracts the receiver's variable name ("" when
// anonymous).
func receiverIdent(fd *ast.FuncDecl) string {
	names := fd.Recv.List[0].Names
	if len(names) == 0 {
		return ""
	}
	return names[0].Name
}

// hasChargeParam reports whether the method's signature carries a
// virtual-time parameter: a time.Duration or a *sim.Clock.
func hasChargeParam(pkg *Package, fd *ast.FuncDecl) bool {
	obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if isNamedType(t, "time", "Duration") {
			return true
		}
		if ptr, ok := t.(*types.Pointer); ok && isNamedType(ptr.Elem(), "memsnap/internal/sim", "Clock") {
			return true
		}
	}
	return false
}

// isNamedType reports whether t is the named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// firstBackingTouch returns the position of the earliest touch of a
// backing field in body: a chargeTouchMethods call whose receiver
// chain roots at recv.<backing>, or an assignment targeting one.
func firstBackingTouch(body *ast.BlockStmt, recv string, backing map[string]bool) token.Pos {
	var first token.Pos
	note := func(pos token.Pos) {
		if !first.IsValid() || pos < first {
			first = pos
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && chargeTouchMethods[sel.Sel.Name] &&
				rootsAtBacking(sel.X, recv, backing) {
				note(x.Pos())
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if rootsAtBacking(lhs, recv, backing) {
					note(lhs.Pos())
				}
			}
		}
		return true
	})
	return first
}

// rootsAtBacking walks a selector/index chain and reports whether it
// passes through recv.<backing field>.
func rootsAtBacking(e ast.Expr, recv string, backing map[string]bool) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && id.Name == recv && backing[x.Sel.Name] {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// costsRefBefore reports whether recv.costs is referenced in body at
// a position strictly before pos (the cost model consulted before the
// touch).
func costsRefBefore(body *ast.BlockStmt, recv string, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv && sel.Sel.Name == "costs" && sel.Pos() < pos {
			found = true
		}
		return true
	})
	return found
}

// memReceiver returns the name of fn's receiver type when fn is a
// method of a type in package mem, else "".
func memReceiver(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "memsnap/internal/mem" {
		return ""
	}
	return obj.Name()
}
