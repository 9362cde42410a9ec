// Package lint is a repo-specific static-analysis suite built on the
// standard library's go/ast, go/parser and go/types only (the module
// must stay offline-buildable, so no golang.org/x/tools).
//
// The reproduction rests on invariants the Go compiler cannot see:
// simulated work charges a virtual sim.Clock, never the wall clock;
// randomness comes only from the deterministic sim.RNG; clocks are
// per-thread and must not leak into goroutines; and every access to
// MemSnap region memory goes through the vm.Thread API so minor
// faults fire and dirty-set tracking stays sound. Each analyzer here
// encodes one of those design rules and is enforced for the whole
// module by the repo-root lint test and by cmd/memsnap-lint.
//
// Suppression: a comment of the form
//
//	//lint:allow <rule>[,<rule>...] [reason]
//
// disables the named rules for the line the comment is on and for the
// line immediately below it (so it can trail the offending line or sit
// on its own line above it). Use it sparingly and give a reason.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
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

// Pass carries one analyzer run over one package.
type Pass struct {
	Pkg    *Package
	rule   string
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one checkable design rule. Exactly one of Run and
// RunProgram is set: Run analyzes one package at a time, RunProgram
// analyzes the whole loaded program at once (one function index and
// interface resolution across packages).
type Analyzer struct {
	// Name is the rule name used in diagnostics and //lint:allow.
	Name string
	// Doc is a one-line statement of the enforced design rule.
	Doc string
	// Run reports violations found in pass.Pkg.
	Run func(pass *Pass)
	// RunProgram reports violations found anywhere in pass.Prog.
	RunProgram func(pass *ProgramPass)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WallTime,
		GlobalRand,
		ClockCapture,
		FaultPath,
		SockIO,
		Unreachable,
	}
}

// Run applies the analyzers to every package and returns surviving
// diagnostics (suppressed ones removed, deduplicated, sorted by
// position). Per-package analyzers run over each package; program
// analyzers run once over the whole package set, with the same
// //lint:allow suppression semantics.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	allow := map[lineKey]map[string]bool{}
	for _, pkg := range pkgs {
		for k, rules := range allowedLines(pkg) {
			if allow[k] == nil {
				allow[k] = map[string]bool{}
			}
			for r := range rules {
				allow[k][r] = true
			}
		}
	}
	seen := map[string]bool{}
	report := func(d Diagnostic) {
		if allow[lineKey{d.Pos.Filename, d.Pos.Line}][d.Rule] {
			return
		}
		key := fmt.Sprintf("%s|%s|%s", d.Pos, d.Rule, d.Message)
		if seen[key] {
			return
		}
		seen[key] = true
		diags = append(diags, d)
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			a.Run(&Pass{Pkg: pkg, rule: a.Name, report: report})
		}
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
// suppress. A directive covers its own line and the next line.
func allowedLines(pkg *Package) map[lineKey]map[string]bool {
	out := map[lineKey]map[string]bool{}
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
	return out
}

// pathIsUnder reports whether the package import path is the prefix
// itself or lies below it.
func pathIsUnder(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}
