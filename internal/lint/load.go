package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of this module without the
// go command: module packages are resolved from the repo tree, the
// standard library is type-checked from GOROOT source via go/importer's
// source importer. Everything works offline.
type Loader struct {
	// Root is the absolute module root (directory holding go.mod).
	Root string
	// Module is the module path from go.mod.
	Module string

	fset  *token.FileSet
	imp   *moduleImporter
	cache map[string]*ast.File // filename -> parsed file
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Root:   root,
		Module: mod,
		fset:   token.NewFileSet(),
		cache:  map[string]*ast.File{},
	}
	l.imp = &moduleImporter{
		l:       l,
		std:     importer.ForCompiler(l.fset, "source", nil),
		pkgs:    map[string]*types.Package{},
		loading: map[string]bool{},
	}
	return l, nil
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// LoadModule parses and type-checks every package in the module
// (including test files; external _test packages are returned as their
// own Package sharing the directory's import path).
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		ipath := l.Module
		if rel != "." {
			ipath = l.Module + "/" + filepath.ToSlash(rel)
		}
		got, err := l.LoadDir(dir, ipath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, got...)
	}
	return pkgs, nil
}

// LoadDir type-checks the packages in one directory under the given
// import path: the primary package (with its in-package test files)
// and, if present, the external _test package. Used both by LoadModule
// and by the fixture harness (which assigns synthetic import paths to
// testdata directories).
func (l *Loader) LoadDir(dir, ipath string) ([]*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}

	// Group files by declared package name.
	groups := map[string][]*File{}
	for _, f := range files {
		groups[f.AST.Name.Name] = append(groups[f.AST.Name.Name], f)
	}
	var names []string
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)

	// A go.mod between dir and the root makes dir its own module.
	nested := false
	for d := dir; d != l.Root && strings.HasPrefix(d, l.Root) && !nested; d = filepath.Dir(d) {
		_, err := os.Stat(filepath.Join(d, "go.mod"))
		nested = err == nil
	}

	var pkgs []*Package
	for _, name := range names {
		group := groups[name]
		// The checker's package path must differ from the import path
		// for external test packages, which import the primary.
		checkPath := ipath
		if strings.HasSuffix(name, "_test") {
			checkPath = ipath + "_test"
		}
		tpkg, info, err := l.check(checkPath, group)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s (%s): %w", ipath, name, err)
		}
		pkgs = append(pkgs, &Package{
			Path:   ipath,
			Name:   name,
			Nested: nested,
			Fset:   l.fset,
			Files:  group,
			Types:  tpkg,
			Info:   info,
		})
	}
	return pkgs, nil
}

// parseDir parses every .go file directly in dir that satisfies the
// default build constraints, in name order. Honoring //go:build lines
// matters: tag-gated twins (e.g. a race / !race constant pair) would
// otherwise both land in one type-check and collide.
func (l *Loader) parseDir(dir string) ([]*File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		af, err := l.parseFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		files = append(files, &File{
			AST:  af,
			Test: strings.HasSuffix(name, "_test.go"),
		})
	}
	return files, nil
}

func (l *Loader) parseFile(path string) (*ast.File, error) {
	if f, ok := l.cache[path]; ok {
		return f, nil
	}
	f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	l.cache[path] = f
	return f, nil
}

// check type-checks one file group, collecting the type info the
// analyzers need.
func (l *Loader) check(path string, group []*File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var errs []error
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	asts := make([]*ast.File, len(group))
	for i, f := range group {
		asts[i] = f.AST
	}
	tpkg, err := conf.Check(path, l.fset, asts, info)
	if len(errs) > 0 {
		// Report the first few errors; one is usually enough.
		msgs := make([]string, 0, 3)
		for i, e := range errs {
			if i == 3 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(errs)-3))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, nil, fmt.Errorf("%s", strings.Join(msgs, "; "))
	}
	if err != nil {
		return nil, nil, err
	}
	return tpkg, info, nil
}

// moduleImporter resolves module-internal import paths from the repo
// tree (non-test files only) and delegates everything else to the
// stdlib source importer. Results are cached so shared dependencies
// (sim, mem, core, ...) are type-checked once.
type moduleImporter struct {
	l       *Loader
	std     types.Importer
	pkgs    map[string]*types.Package
	loading map[string]bool
}

func (imp *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := imp.pkgs[path]; ok {
		return p, nil
	}
	mod := imp.l.Module
	if path == mod || strings.HasPrefix(path, mod+"/") {
		if imp.loading[path] {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		imp.loading[path] = true
		defer delete(imp.loading, path)

		dir := filepath.Join(imp.l.Root, filepath.FromSlash(strings.TrimPrefix(path, mod)))
		files, err := imp.l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		// Importable view: non-test files of the primary package only.
		asts := make([]*ast.File, 0, len(files))
		for _, f := range files {
			if !f.Test && !strings.HasSuffix(f.AST.Name.Name, "_test") {
				asts = append(asts, f.AST)
			}
		}
		if len(asts) == 0 {
			return nil, fmt.Errorf("no non-test Go files in %s", dir)
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, imp.l.fset, asts, nil)
		if err != nil {
			return nil, err
		}
		imp.pkgs[path] = tpkg
		return tpkg, nil
	}
	return imp.std.Import(path)
}
