package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the import path ("bladerunner/internal/pylon").
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's resolution maps for Files.
	Info *types.Info
}

// Loader parses and type-checks packages of a single module using only the
// standard library: module-internal imports are resolved by the loader
// itself (recursively, in dependency order), everything else is delegated
// to go/importer's source importer, which compiles the standard library
// from GOROOT/src. No go/packages, no x/tools.
type Loader struct {
	// Fset is shared by every file the loader touches, so positions from
	// different packages are comparable.
	Fset *token.FileSet
	// ModRoot is the absolute path of the directory containing go.mod.
	ModRoot string
	// ModPath is the module path declared in go.mod.
	ModPath string

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a Loader for the module rooted at or above dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModRoot: root,
		ModPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// findModule walks up from dir until it finds go.mod and extracts the
// module path from its first "module" directive.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod found at or above %s", abs)
		}
	}
}

// Load resolves package patterns into type-checked packages. A pattern is
// either a directory path (absolute, or relative to the loader's module
// root) or such a path followed by "/..." to include every package in the
// subtree. "./..." therefore loads the whole module. Directories named
// testdata, hidden directories, and directories starting with "_" are
// skipped during "..." expansion, mirroring the go tool.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.loadPackage(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// expand resolves package patterns into the directories that hold Go
// files, without loading them.
func (l *Loader) expand(patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.ModRoot, base)
		}
		base = filepath.Clean(base)
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: expanding %s: %w", pat, err)
		}
	}

	var withGo []string
	for _, dir := range dirs {
		hasGo, err := dirHasGoFiles(dir)
		if err != nil {
			return nil, err
		}
		if hasGo {
			withGo = append(withGo, dir)
		}
	}
	return withGo, nil
}

func dirHasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, fmt.Errorf("lint: %w", err)
	}
	for _, e := range ents {
		if !e.IsDir() && includeFile(e.Name()) {
			return true, nil
		}
	}
	return false, nil
}

// includeFile reports whether name is a source file the loader analyzes:
// non-test, non-generated-prefix .go files.
func includeFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, "_") &&
		!strings.HasPrefix(name, ".")
}

// importPathFor maps an absolute directory inside the module to its import
// path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.ModRoot)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// dirFor is the inverse of importPathFor.
func (l *Loader) dirFor(path string) string {
	if path == l.ModPath {
		return l.ModRoot
	}
	rel := strings.TrimPrefix(path, l.ModPath+"/")
	return filepath.Join(l.ModRoot, filepath.FromSlash(rel))
}

// loadPackage parses and type-checks the module package with the given
// import path, loading its module-internal dependencies first.
func (l *Loader) loadPackage(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !includeFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importerFunc(l.importDep)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// withDeps returns pkgs followed by the module packages they import,
// directly or not.
func (l *Loader) withDeps(pkgs []*Package) []*Package {
	out := append([]*Package(nil), pkgs...)
	seen := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		seen[p.Path] = true
	}
	for i := 0; i < len(out); i++ {
		for _, imp := range out[i].Types.Imports() {
			if dep, ok := l.pkgs[imp.Path()]; ok && !seen[dep.Path] {
				seen[dep.Path] = true
				out = append(out, dep)
			}
		}
	}
	return out
}

// importDep resolves one import: module-internal packages go through the
// loader, everything else (the standard library) through the source
// importer.
func (l *Loader) importDep(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		pkg, err := l.loadPackage(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
