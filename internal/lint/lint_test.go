package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRes match the two expectation-comment forms:
//
//	// want `regexp`
//	// want "regexp"
//
// in the spirit of x/tools analysistest, stdlib-only.
var (
	wantBacktickRe = regexp.MustCompile("want\\s+`([^`]*)`")
	wantQuotedRe   = regexp.MustCompile(`want\s+("(?:[^"\\]|\\.)*")`)
)

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// TestAnalyzersOnFixtures runs the whole suite over every fixture
// package under testdata/src and requires an exact match between
// reported diagnostics and `// want` comments: every diagnostic must
// be expected, every expectation must fire. Lines carrying a
// //lint:allow directive and no want comment therefore prove the
// suppression mechanism (each fixture has a suppressed line whose
// unsuppressed twin fails). A fixture made of subdirectories is one
// program: each subdirectory is loaded under its real import path, so
// the packages import one another.
func TestAnalyzersOnFixtures(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	fixRoot := filepath.Join(root, "internal", "lint", "testdata", "src")
	ents, err := os.ReadDir(fixRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("no fixture packages under testdata/src")
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			pkgs, err := loadFixture(loader, filepath.Join(fixRoot, name), "memsnap/internal/lintfixtures/"+name)
			if err != nil {
				t.Fatal(err)
			}
			wants := collectWants(t, pkgs)
			for _, d := range Run(pkgs, Analyzers()) {
				matched := false
				for _, w := range wants {
					if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
						continue
					}
					if w.re.MatchString(d.Message) {
						w.matched = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
				}
			}
		})
	}
}

// loadFixture loads a fixture directory as one package, or, when it
// holds subdirectories, each of them under its import path in the
// module tree.
func loadFixture(loader *Loader, dir, ipath string) ([]*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		rel, err := filepath.Rel(loader.Root, filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		got, err := loader.LoadDir(filepath.Join(dir, e.Name()), loader.Module+"/"+filepath.ToSlash(rel))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, got...)
	}
	if pkgs != nil {
		return pkgs, nil
	}
	return loader.LoadDir(dir, ipath)
}

// collectWants extracts `// want` expectations from every comment in
// the fixture packages.
func collectWants(t *testing.T, pkgs []*Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.AST.Comments {
				for _, c := range cg.List {
					if !strings.Contains(c.Text, "want ") {
						continue
					}
					var pat string
					if m := wantBacktickRe.FindStringSubmatch(c.Text); m != nil {
						pat = m[1]
					} else if m := wantQuotedRe.FindStringSubmatch(c.Text); m != nil {
						unq, err := strconv.Unquote(m[1])
						if err != nil {
							t.Fatalf("bad want string %s: %v", m[1], err)
						}
						pat = unq
					} else {
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", pat, err)
					}
					pos := pkg.Fset.Position(c.Slash)
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// TestAllowDirectiveParsing pins down the //lint:allow grammar:
// multiple comma-separated rules, optional reason, coverage of the
// directive's own line and the next.
func TestAllowDirectiveParsing(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := `package allowfix

// plain comment
//lint:allow ruleone,ruletwo because reasons
var a = 1

var b = 2 //lint:allow rulethree
`
	if err := os.WriteFile(filepath.Join(dir, "allowfix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadDir(dir, "memsnap/internal/lintfixtures/allowfix")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	allow, _ := allowedLines(pkgs[0], nil)
	file := filepath.Join(dir, "allowfix.go")
	for _, tc := range []struct {
		line int
		rule string
		want bool
	}{
		{4, "ruleone", true},
		{4, "ruletwo", true},
		{5, "ruleone", true}, // next line covered
		{5, "ruletwo", true},
		{6, "ruleone", false}, // two lines down: not covered
		{7, "rulethree", true},
		{8, "rulethree", true},
		{4, "rulethree", false},
		{5, "because", false}, // reason text is not a rule
	} {
		got := allow[lineKey{file, tc.line}][tc.rule]
		if got != tc.want {
			t.Errorf("line %d rule %q: allowed=%v, want %v", tc.line, tc.rule, got, tc.want)
		}
	}
}

// TestAnalyzerDocs makes sure every analyzer is registered with a name
// and a one-line rule statement (the CLI -list output and DESIGN.md
// table both lean on these).
func TestAnalyzerDocs(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v missing name or doc", a)
		}
		if (a.Run == nil) == (a.RunProgram == nil) {
			t.Errorf("analyzer %q must set exactly one of Run and RunProgram", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, want := range []string{"walltime", "globalrand", "clockcapture", "faultpath", "sockio", "unreachable"} {
		if !seen[want] {
			t.Errorf("suite is missing the %s analyzer", want)
		}
	}
}
