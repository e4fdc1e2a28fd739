package lint

import (
	"bufio"
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

// ModuleRoot walks up from dir to the nearest directory containing a
// go.mod.
func ModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	//xk:ignore retryloop directory walk, not a retry: d strictly ascends and parent==d terminates
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	f, err := os.Open(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	defer f.Close() //xk:ignore errdrop read-only file; Close cannot lose data
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// pkgDir is one buildable package directory of the module.
type pkgDir struct {
	dir        string // absolute
	importPath string
	goFiles    []string // build-constraint-selected non-test files
	imports    []string
}

// modulePackages enumerates every buildable package under root,
// skipping testdata, hidden directories, and docs. Test files are not
// loaded: the invariants xkvet enforces live in the shipped code, and
// keeping tests out avoids type-checking external test packages.
func modulePackages(root, modPath string) (map[string]*pkgDir, error) {
	pkgs := make(map[string]*pkgDir)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "docs") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return fmt.Errorf("lint: reading %s: %w", path, err)
		}
		if len(bp.GoFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		pkgs[ip] = &pkgDir{dir: path, importPath: ip, goFiles: bp.GoFiles, imports: bp.Imports}
		return nil
	})
	return pkgs, err
}

// moduleImporter resolves module-internal imports from the packages
// already type-checked this run, and everything else (the standard
// library) through the source importer, so the whole load needs nothing
// beyond GOROOT sources.
type moduleImporter struct {
	modPath string
	checked map[string]*types.Package
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		if pkg, ok := m.checked[path]; ok {
			return pkg, nil
		}
		return nil, fmt.Errorf("lint: internal package %s not yet checked (import cycle?)", path)
	}
	return m.std.Import(path)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// parseDir parses the selected files of one package directory.
func parseDir(fset *token.FileSet, p *pkgDir) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(p.goFiles))
	for _, name := range p.goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// CheckModule loads every package of the module rooted at root,
// type-checks them in dependency order, runs the analyzers, and returns
// the findings that survive //xk:ignore filtering, with filenames
// relative to root.
func CheckModule(root string, analyzers []*Analyzer) ([]Finding, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := modulePackages(root, modPath)
	if err != nil {
		return nil, err
	}

	// Topologically order the module-internal import graph so every
	// dependency is checked before its importers.
	var order []string
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(ip string) error
	visit = func(ip string) error {
		switch state[ip] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", ip)
		case 2:
			return nil
		}
		state[ip] = 1
		for _, dep := range pkgs[ip].imports {
			if dep != modPath && !strings.HasPrefix(dep, modPath+"/") {
				continue
			}
			if pkgs[dep] == nil {
				return fmt.Errorf("lint: %s imports %s, which has no buildable files", ip, dep)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[ip] = 2
		order = append(order, ip)
		return nil
	}
	roots := make([]string, 0, len(pkgs))
	for ip := range pkgs {
		roots = append(roots, ip)
	}
	sort.Strings(roots)
	for _, ip := range roots {
		if err := visit(ip); err != nil {
			return nil, err
		}
	}

	fset := token.NewFileSet()
	imp := &moduleImporter{
		modPath: modPath,
		checked: make(map[string]*types.Package),
		std:     importer.ForCompiler(fset, "source", nil),
	}
	var all []Finding
	for _, ip := range order {
		files, err := parseDir(fset, pkgs[ip])
		if err != nil {
			return nil, err
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(ip, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", ip, err)
		}
		imp.checked[ip] = pkg
		all = append(all, filterIgnored(fset, files, runAnalyzers(fset, files, pkg, info, analyzers))...)
	}
	relativize(all, root)
	sortFindings(all)
	return all, nil
}

// CheckDir type-checks the single package in dir under the given import
// path (which determines path-scoped analyzers such as errdrop), runs
// the analyzers, and returns the surviving findings with filenames
// relative to dir. It exists for the analyzer testdata packages, which
// live outside the module's build graph.
func CheckDir(dir, importPath string, analyzers []*Analyzer) ([]Finding, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkgDir{dir: dir, importPath: importPath, goFiles: bp.GoFiles}
	fset := token.NewFileSet()
	files, err := parseDir(fset, p)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", dir, err)
	}
	out := filterIgnored(fset, files, runAnalyzers(fset, files, pkg, info, analyzers))
	relativize(out, dir)
	sortFindings(out)
	return out, nil
}

// relativize rewrites finding filenames relative to root, with forward
// slashes, for stable output across machines.
func relativize(fs []Finding, root string) {
	for i := range fs {
		if rel, err := filepath.Rel(root, fs[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			fs[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
}
