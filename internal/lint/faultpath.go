package lint

import (
	"go/ast"
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

// FaultPath forbids direct use of mem.PhysMem and mem.Page frame
// accessors outside the MMU packages: writing frame bytes behind the
// vm.Thread API's back skips the minor-fault path, so the write never
// lands in a dirty set and the next uCheckpoint silently misses it
// (PAPER.md §3: dirty-set tracking is the whole persistence contract).
var FaultPath = &Analyzer{
	Name: "faultpath",
	Doc:  "forbid mem.PhysMem/mem.Page frame accessors outside mem, vm and pagetable; region memory is reached only through the vm.Thread fault path",
	Run:  runFaultPath,
}

func runFaultPath(pass *Pass) {
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
