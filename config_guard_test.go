package golatest

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unsetAllowed lists the config fields that nothing outside their own
// file writes but that stay settable, each with the reason.
var unsetAllowed = map[string]string{
	"golatest/internal/core.Config.CaptureSafety":          perfbenchReads,
	"golatest/internal/core.Config.DelayIters":             perfbenchReads,
	"golatest/internal/core.Config.Outlier":                perfbenchReads,
	"golatest/internal/cluster.AdaptiveConfig.MinPtsFloor": perfbenchReads,
}

const perfbenchReads = "read by perfbench/traced.go; delete with the ROADMAP benchmark item that retires its in-process pass"

// TestConfigFieldsAreSet holds every exported field of a …Config or
// …Options struct to being written somewhere outside the file that
// declares it: by a keyed (or positional) composite literal, an
// assignment, an increment or an address taken. Test files and the
// perfbench module count as writers. A field no code sets is a fixed
// parameter, and belongs in a constant, not in the configuration every
// reader must consider. Owners are resolved by type, so same-named
// fields of different structs are told apart.
func TestConfigFieldsAreSet(t *testing.T) {
	c, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.errs) > 0 {
		t.Fatalf("type-checking the module: %d errors, first: %v", len(c.errs), c.errs[0])
	}
	if len(c.fields) == 0 {
		t.Fatal("found no config fields: the scan is broken")
	}
	var unset []string
	for key, file := range c.fields {
		written := false
		for f := range c.writes[key] {
			written = written || f != file
		}
		_, allowed := unsetAllowed[key]
		switch {
		case !written && !allowed:
			unset = append(unset, fmt.Sprintf("%s (%s)", key, file))
		case written && allowed:
			t.Errorf("%s is written now; drop it from unsetAllowed", key)
		}
	}
	for key := range unsetAllowed {
		if _, ok := c.fields[key]; !ok {
			t.Errorf("%s is no config field any more; drop it from unsetAllowed", key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s: nothing outside its file sets it; make it a constant", u)
	}
}

// srcPkg is one directory's parsed files: the package proper, its
// in-package test files, and its external (_test) test files.
type srcPkg struct {
	files, tests, xtests []*ast.File
	imports              []string // of files, module paths only
}

type moduleCheck struct {
	fset    *token.FileSet
	module  string
	pkgs    map[string]*srcPkg
	std     types.Importer
	base    *universe
	reaches map[[2]string]bool
	errs    []error
	// fields maps "pkgpath.Type.Field" to the file declaring it; writes
	// maps the same key to every file writing it.
	fields map[string]string
	writes map[string]map[string]bool
}

// loadModule parses and type-checks every package under root (the
// module's own and nested modules that import it, such as perfbench),
// with their tests, and collects the config fields and their writes.
func loadModule(root string) (*moduleCheck, error) {
	c := &moduleCheck{
		fset:    token.NewFileSet(),
		pkgs:    map[string]*srcPkg{},
		reaches: map[[2]string]bool{},
		fields:  map[string]string{},
		writes:  map[string]map[string]bool{},
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	c.module = strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))
	std := map[string]bool{}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		return c.parseDir(root, dir, std)
	})
	if err != nil {
		return nil, err
	}
	if c.std, err = stdImporter(c.fset, std); err != nil {
		return nil, err
	}
	c.base = &universe{c: c, pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}

	paths := make([]string, 0, len(c.pkgs))
	for path := range c.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		p := c.pkgs[path]
		if len(p.files) > 0 {
			if _, err := c.base.Import(path); err != nil {
				return nil, err
			}
			c.scan(c.base.infos[path], p.files)
			if !strings.HasPrefix(path, c.module+"/perfbench") {
				c.declare(c.base.infos[path], p.files)
			}
		}
		variant := c.base.pkgs[path]
		if len(p.tests) > 0 {
			var info *types.Info
			variant, info = c.check(c.base, path, append(append([]*ast.File{}, p.files...), p.tests...))
			c.scan(info, p.tests)
		}
		if len(p.xtests) > 0 {
			u := &universe{c: c, target: path, pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
			if variant != nil {
				u.pkgs[path] = variant
			}
			_, info := c.check(u, path+"_test", p.xtests)
			c.scan(info, p.xtests)
		}
	}
	return c, nil
}

func (c *moduleCheck) parseDir(root, dir string, std map[string]bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return err
	}
	path := c.module
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	p := &srcPkg{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if ip != c.module && !strings.HasPrefix(ip, c.module+"/") {
				std[ip] = true
			} else if !strings.HasSuffix(name, "_test.go") {
				p.imports = append(p.imports, ip)
			}
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			p.files = append(p.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtests = append(p.xtests, f)
		default:
			p.tests = append(p.tests, f)
		}
	}
	if len(p.files)+len(p.tests)+len(p.xtests) > 0 {
		c.pkgs[path] = p
	}
	return nil
}

// stdImporter reads the export data of the given standard-library
// packages (and their dependencies), located by one go list call.
func stdImporter(fset *token.FileSet, pkgs map[string]bool) (types.Importer, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}
	for p := range pkgs {
		args = append(args, p)
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.String())
	}
	exports := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if path, file, ok := strings.Cut(sc.Text(), " "); ok {
			exports[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	}), nil
}

// universe type-checks module packages from source. An external test's
// universe builds the package under test from its test variant, as go
// test does, and rebuilds every module package that imports it.
type universe struct {
	c      *moduleCheck
	target string
	pkgs   map[string]*types.Package
	infos  map[string]*types.Info
}

func (u *universe) Import(path string) (*types.Package, error) {
	p := u.c.pkgs[path]
	if p == nil || len(p.files) == 0 {
		return u.c.std.Import(path)
	}
	if u.target != "" && !u.c.imports(path, u.target) {
		return u.c.base.Import(path)
	}
	if tp := u.pkgs[path]; tp != nil {
		return tp, nil
	}
	tp, info := u.c.check(u, path, p.files)
	u.pkgs[path], u.infos[path] = tp, info
	return tp, nil
}

func (c *moduleCheck) check(u *universe, path string, files []*ast.File) (*types.Package, *types.Info) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: u, Error: func(err error) { c.errs = append(c.errs, err) }}
	pkg, _ := conf.Check(path, c.fset, files, info)
	return pkg, info
}

// imports reports whether module package from imports to, directly or
// not, or is it.
func (c *moduleCheck) imports(from, to string) bool {
	if from == to {
		return true
	}
	key := [2]string{from, to}
	if r, ok := c.reaches[key]; ok {
		return r
	}
	c.reaches[key] = false
	r := false
	if p := c.pkgs[from]; p != nil {
		for _, ip := range p.imports {
			r = r || c.imports(ip, to)
		}
	}
	c.reaches[key] = r
	return r
}

// declare records the exported fields of every named …Config and
// …Options struct the files declare.
func (c *moduleCheck) declare(info *types.Info, files []*ast.File) {
	for _, f := range files {
		file := c.fset.File(f.Pos()).Name()
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				name := ts.Name.Name
				if ts.Assign.IsValid() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
					continue
				}
				obj := info.Defs[ts.Name]
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if fd := st.Field(i); fd.Exported() {
						c.fields[ownerKey(obj.Type())+"."+fd.Name()] = file
					}
				}
			}
		}
	}
}

// scan records every field write in files.
func (c *moduleCheck) scan(info *types.Info, files []*ast.File) {
	for _, f := range files {
		file := c.fset.File(f.Pos()).Name()
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				typ := info.TypeOf(n)
				if typ == nil {
					break
				}
				st, ok := deref(typ).Underlying().(*types.Struct)
				if !ok {
					break
				}
				owner := ownerKey(typ)
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						c.wrote(owner, kv.Key.(*ast.Ident).Name, file)
					} else {
						c.wrote(owner, st.Field(i).Name(), file)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					c.fieldWrite(info, lhs, file)
				}
			case *ast.IncDecStmt:
				c.fieldWrite(info, n.X, file)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					c.fieldWrite(info, n.X, file)
				}
			case *ast.RangeStmt:
				c.fieldWrite(info, n.Key, file)
				c.fieldWrite(info, n.Value, file)
			}
			return true
		})
	}
}

// fieldWrite records e as a write if it selects a struct field. The
// owner is the struct declaring the field, found by walking the
// selection's embedding path from the receiver's type.
func (c *moduleCheck) fieldWrite(info *types.Info, e ast.Expr, file string) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	typ := s.Recv()
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		typ = deref(typ).Underlying().(*types.Struct).Field(i).Type()
	}
	c.wrote(ownerKey(typ), s.Obj().Name(), file)
}

func (c *moduleCheck) wrote(owner, field, file string) {
	if owner == "" {
		return
	}
	key := owner + "." + field
	if c.writes[key] == nil {
		c.writes[key] = map[string]bool{}
	}
	c.writes[key][file] = true
}

func deref(t types.Type) types.Type {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		return types.Unalias(p.Elem())
	}
	return t
}

// ownerKey names a named struct type as "pkgpath.Type", or "" for an
// unnamed one.
func ownerKey(t types.Type) string {
	n, ok := deref(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}
