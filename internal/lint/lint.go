// Package lint is a repo-specific static-analysis suite built on the
// standard library's go/ast, go/parser and go/types only (the module
// must stay offline-buildable, so no golang.org/x/tools).
//
// The reproduction rests on invariants the Go compiler cannot see:
// simulated work charges a virtual sim.Clock, never the wall clock;
// randomness comes only from the deterministic sim.RNG; real sockets
// stay at the documented wall boundaries. Each of those is a reference
// ban, a row of one table (ban.go) that one walk per package checks;
// the whole-program unreachable pass (unreachable.go) finds code and
// fields no program uses. Invariants whose breach a run-time test
// already fails on, such as region access only through the vm.Thread
// fault path, have no analyzer (DESIGN.md §4 lists the mutants that
// show it). The suite is enforced for the whole module by the
// repo-root lint test and by cmd/memsnap-lint.
//
// Suppression: a comment of the form
//
//	//lint:allow <rule>[,<rule>...] [reason]
//
// disables the named rules for the line the comment is on and for the
// line immediately below it (so it can trail the offending line or sit
// on its own line above it). Use it sparingly and give a reason. A
// directive naming a rule that no analyzer in Analyzers() has is itself
// reported (rule "allow"), so a misspelt or stale allow cannot sit
// suppressing nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// File is one parsed source file of a package.
type File struct {
	AST *ast.File
	// Test reports a _test.go file.
	Test bool
}

// Package is one type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("memsnap/internal/shard"). External
	// test packages share the directory's import path; Name
	// distinguishes them ("shard" vs "shard_test").
	Path string
	// Name is the package name from the package clauses.
	Name string
	// Nested marks a directory under a go.mod of its own (benchmark/):
	// analysed with the module, built and gated as its own module.
	Nested bool
	Fset   *token.FileSet
	Files  []*File
	Types  *types.Package
	Info   *types.Info
}

// Diagnostic is one rule violation.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Rule, d.Message)
}

// Analyzer is one checkable design rule. Exactly one of ban and
// RunProgram is set: a ban is a row of the reference-ban table that
// one walk per package checks, RunProgram analyzes the whole loaded
// program at once (one function index and interface resolution across
// packages).
type Analyzer struct {
	// Name is the rule name used in diagnostics and //lint:allow.
	Name string
	// Doc is a one-line statement of the enforced design rule.
	Doc string
	// ban is the rule's row in the reference-ban table.
	ban *ban
	// RunProgram reports violations found anywhere in pass.Prog.
	RunProgram func(pass *ProgramPass)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return append(slices.Clip(bans), Unreachable)
}

// Run applies the analyzers to every package and returns surviving
// diagnostics (suppressed ones removed, deduplicated, sorted by
// position). The selected bans are checked in one walk per package;
// program analyzers run once over the whole package set, with the same
// //lint:allow suppression semantics.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	seen := map[string]bool{}
	add := func(d Diagnostic) {
		key := fmt.Sprintf("%s|%s|%s", d.Pos, d.Rule, d.Message)
		if seen[key] {
			return
		}
		seen[key] = true
		diags = append(diags, d)
	}
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	allow := map[lineKey]map[string]bool{}
	for _, pkg := range pkgs {
		lines, unknown := allowedLines(pkg, known)
		for k, rules := range lines {
			if allow[k] == nil {
				allow[k] = map[string]bool{}
			}
			for r := range rules {
				allow[k][r] = true
			}
		}
		for _, d := range unknown {
			add(d)
		}
	}
	report := func(d Diagnostic) {
		if !allow[lineKey{d.Pos.Filename, d.Pos.Line}][d.Rule] {
			add(d)
		}
	}
	var rows []*Analyzer
	for _, a := range analyzers {
		if a.ban != nil {
			rows = append(rows, a)
		}
	}
	for _, pkg := range pkgs {
		checkBans(pkg, rows, report)
	}
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = NewProgram(pkgs)
		}
		a.RunProgram(&ProgramPass{Prog: prog, rule: a.Name, report: report})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}

type lineKey struct {
	file string
	line int
}

var allowRe = regexp.MustCompile(`^lint:allow\s+([A-Za-z0-9_,-]+)(\s|$)`)

// allowedLines scans every comment in the package for //lint:allow
// directives and returns the set of (file, line) -> rules they
// suppress and, unless known is nil, an "allow" diagnostic for each
// rule a directive names that is not in known. A directive covers its
// own line and the next line.
func allowedLines(pkg *Package, known map[string]bool) (map[lineKey]map[string]bool, []Diagnostic) {
	out := map[lineKey]map[string]bool{}
	var unknown []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				m := allowRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				for _, rule := range strings.Split(m[1], ",") {
					rule = strings.TrimSpace(rule)
					if rule == "" {
						continue
					}
					if known != nil && !known[rule] {
						unknown = append(unknown, Diagnostic{
							Pos:     pos,
							Rule:    "allow",
							Message: fmt.Sprintf("//lint:allow names %q, which is no analyzer's rule", rule),
						})
						continue
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						k := lineKey{pos.Filename, line}
						if out[k] == nil {
							out[k] = map[string]bool{}
						}
						out[k][rule] = true
					}
				}
			}
		}
	}
	return out, unknown
}

// pathIsUnder reports whether the package import path is the prefix
// itself or lies below it.
func pathIsUnder(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}
