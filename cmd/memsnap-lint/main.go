// Command memsnap-lint runs the repo's design-rule analyzers
// (internal/lint) over the module and exits non-zero on violations.
//
// Usage:
//
//	memsnap-lint [-list] [-json] [pattern ...]
//
// Patterns are directories relative to the module root ("./..." or no
// arguments means the whole module; "./internal/shard" or
// "internal/shard/..." restricts the report to a subtree). A pattern
// that names no directory is an error. The whole module is analysed
// either way, so the whole-program unreachable pass sees every main as
// a root.
//
// With -json, diagnostics are written to stdout as a JSON array of
// {file, line, col, rule, message} objects (empty array when clean)
// for machine consumption; the exit status still reflects violations.
// The tool has zero third-party dependencies and needs no network:
// module packages are type-checked from the repo tree, the standard
// library from GOROOT source.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"memsnap/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, lints the module and writes the
// report to stdout and problems to stderr. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memsnap-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	rules := fs.String("rules", "", "comma-separated subset of analyzers to run (default: all)")
	asJSON := fs.Bool("json", false, "emit diagnostics as JSON on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: memsnap-lint [-list] [-rules a,b] [-json] [pattern ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "memsnap-lint: "+format+"\n", args...)
		return 1
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *rules != "" {
		want := map[string]bool{}
		for _, r := range strings.Split(*rules, ",") {
			want[strings.TrimSpace(r)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for r := range want {
			return fail("unknown analyzer %q (use -list)", r)
		}
		analyzers = sel
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		return fail("%v", err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		return fail("%v", err)
	}
	dirs, err := patternDirs(root, fs.Args())
	if err != nil {
		return fail("%v", err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		return fail("%v", err)
	}
	// The whole module is analysed whatever the patterns say: the
	// unreachable pass needs every main as a root. Patterns only pick
	// which findings are reported.
	diags := underDirs(lint.Run(pkgs, analyzers), dirs)
	if *asJSON {
		if err := writeJSON(stdout, root, diags); err != nil {
			return fail("encoding JSON: %v", err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return fail("%d violation(s)", len(diags))
	}
	return 0
}

// jsonDiag is the machine-readable diagnostic shape (-json).
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// writeJSON emits diagnostics as a JSON array on w, with file paths
// relative to the module root so reports are stable across checkouts.
// An empty run prints "[]", never "null".
func writeJSON(w io.Writer, root string, diags []lint.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		out = append(out, jsonDiag{
			File:    file,
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Rule:    d.Rule,
			Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// patternDirs resolves patterns to the directories they name; nil
// means the whole module. A pattern is a directory relative to the
// module root, with an optional "/..."; one that names no directory is
// an error, so a misspelt pattern cannot pass as a clean report.
func patternDirs(root string, patterns []string) ([]string, error) {
	var dirs []string
	for _, pat := range patterns {
		p := strings.TrimPrefix(strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/"), "./")
		if p == "" || p == "." {
			return nil, nil
		}
		dir := filepath.Join(root, filepath.FromSlash(p))
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("pattern %q names no directory of the module", pat)
		}
		dirs = append(dirs, dir)
	}
	return dirs, nil
}

// underDirs keeps the diagnostics whose file lies in one of dirs or
// below it; no dirs keep everything.
func underDirs(diags []lint.Diagnostic, dirs []string) []lint.Diagnostic {
	if len(dirs) == 0 {
		return diags
	}
	var out []lint.Diagnostic
	for _, d := range diags {
		for _, dir := range dirs {
			if strings.HasPrefix(d.Pos.Filename, dir+string(filepath.Separator)) {
				out = append(out, d)
				break
			}
		}
	}
	return out
}
