package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strconv"
)

// ban is one row of the reference-ban table: code in scope must not
// refer to a target. walltime, globalrand and sockio are all this one
// check, so checkBans walks each package once (every file's imports
// and every identifier's use) for all of them.
type ban struct {
	// msg formats a finding; its one verb gets the reference
	// ("time.Now", "math/rand").
	msg string
	// pkgs are the import paths of the target packages.
	pkgs []string
	// names are the banned package-level objects of pkgs. None:
	// importing the package is the reference.
	names []string
	// tests makes _test.go files count.
	tests bool
	// under scopes the row to these package paths and everything
	// below them; none: every package.
	under []string
}

// simulationCode is where virtual time rules: the simulation and its
// binaries.
var simulationCode = []string{"memsnap/internal", "memsnap/cmd"}

// bans is the table, one row per rule, in Analyzers() order.
var bans = []*Analyzer{
	{
		// Time types and constants (time.Duration, time.Microsecond)
		// stay usable: virtual time is denominated in time.Duration
		// throughout the simulation (PAPER.md §6 methodology; see the
		// internal/sim package comment).
		Name: "walltime",
		Doc:  "forbid time.Now/Sleep/Since/timers in simulation code; only sim.Clock may advance time",
		ban: &ban{
			msg:   "%s reads the wall clock; simulated work must charge a virtual sim.Clock so runs are deterministic (design rule: virtual time only)",
			pkgs:  []string{"time"},
			names: []string{"Now", "Sleep", "Since", "Until", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker"},
			under: simulationCode,
		},
	},
	{
		// Every workload generator and randomized component takes an
		// explicit *sim.RNG (internal/sim/rng.go). Test files count
		// too: a test seeded from global randomness is a flaky test.
		Name: "globalrand",
		Doc:  "forbid math/rand imports; all randomness must come from the deterministic sim.RNG",
		ban: &ban{
			msg:   "import of %q: randomness must come from the deterministic sim.RNG so runs replay bit-for-bit from a seed (design rule: seeded determinism)",
			pkgs:  []string{"math/rand", "math/rand/v2"},
			tests: true,
		},
	},
	{
		// Importing "net" puts a package on the wall-clock, real-kernel
		// side of the simulation line: its latencies are machine
		// timings and none of it replays from a seed. Only obs, netsvc
		// and the binaries that drive them cross that line, each import
		// with a //lint:allow sockio that says why.
		Name: "sockio",
		Doc:  "forbid \"net\" imports outside documented wall boundaries; real sockets only in obs/netsvc and their binaries",
		ban: &ban{
			msg:   "import of %q: real-socket I/O belongs only to documented wall boundaries (obs, netsvc, their binaries); annotate intentional boundaries with //lint:allow sockio (design rule: simulation stays off the network)",
			pkgs:  []string{"net", "net/http"},
			under: simulationCode,
		},
	},
}

// covers reports whether the row applies to the package at path.
func (b *ban) covers(path string) bool {
	return len(b.under) == 0 || slices.ContainsFunc(b.under, func(p string) bool { return pathIsUnder(path, p) })
}

// checkBans checks every row in rows over pkg in one walk.
func checkBans(pkg *Package, rows []*Analyzer, report func(Diagnostic)) {
	var live []*Analyzer
	for _, a := range rows {
		if a.ban.covers(pkg.Path) {
			live = append(live, a)
		}
	}
	if len(live) == 0 {
		return
	}
	for _, f := range pkg.Files {
		flag := func(pos token.Pos, match func(*ban) bool, ref string) {
			for _, a := range live {
				if (a.ban.tests || !f.Test) && match(a.ban) {
					report(Diagnostic{Pos: pkg.Fset.Position(pos), Rule: a.Name, Message: fmt.Sprintf(a.ban.msg, ref)})
				}
			}
		}
		for _, imp := range f.AST.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			flag(imp.Pos(), func(b *ban) bool { return len(b.names) == 0 && slices.Contains(b.pkgs, path) }, path)
		}
		use := func(pos token.Pos, id *ast.Ident) {
			obj := pkg.Info.Uses[id]
			if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
				return // not package-level: a local, a field or a method
			}
			flag(pos, func(b *ban) bool {
				return slices.Contains(b.names, obj.Name()) && slices.Contains(b.pkgs, obj.Pkg().Path())
			}, obj.Pkg().Name()+"."+obj.Name())
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// A qualified reference is reported where it starts.
				use(n.Pos(), n.Sel)
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				use(n.Pos(), n)
			}
			return true
		}
		ast.Inspect(f.AST, visit)
	}
}
