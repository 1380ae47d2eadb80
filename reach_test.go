package repro_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryExportedIdentifierIsReachable keeps the module's API to what a
// user can reach. It type-checks every non-test package of the module,
// with bench/ (its own module) and the main packages of cmd/ and
// examples/ parsed as users, and fails listing each exported identifier
// of the other packages that no non-test code names. Two kinds are
// exempt: a method that some type of the module reaches an interface
// with, declared or promoted by embedding (the module's own interfaces
// such as sm.Controller, plus error, fmt.Stringer, json.Marshaler,
// http.ResponseWriter and http.Flusher), and an identifier whose doc
// comment says it is "for tests". Delete an identifier the list names,
// or move it into the tests that use it.
func TestEveryExportedIdentifierIsReachable(t *testing.T) {
	c := newReachChecker()
	if err := c.load("."); err != nil {
		t.Fatal(err)
	}
	if unreached := c.unreached(); len(unreached) > 0 {
		t.Errorf("%d exported identifiers outside bench/ are used only by tests (delete them, or say \"for tests\" in a doc comment when a test in another package needs one):\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
}

// reachPkg is one type-checked non-test package of the module.
type reachPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
	user  bool // bench/: its uses count, its declarations are not checked
}

type reachChecker struct {
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*reachPkg // by import path
	checking map[string]bool
}

func newReachChecker() *reachChecker {
	fset := token.NewFileSet()
	return &reachChecker{
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     map[string]*reachPkg{},
		checking: map[string]bool{},
	}
}

// load parses every directory under root that holds a non-test Go
// package and type-checks them all. The module is "repro" and bench/ is
// "repro/bench", so a directory's import path is "repro/" plus its path.
func (c *reachChecker) load(root string) error {
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		if err != nil {
			return err
		}
		p := &reachPkg{path: "repro"}
		if dir != root {
			p.path += "/" + filepath.ToSlash(dir)
		}
		p.user = p.path == "repro/bench" || strings.HasPrefix(p.path, "repro/bench/")
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		c.pkgs[p.path] = p
		return nil
	})
	if err != nil {
		return err
	}
	for path := range c.pkgs {
		if _, err := c.Import(path); err != nil {
			return err
		}
	}
	return nil
}

// Import type-checks a module package from its parsed files, once, and
// hands anything else to the standard library's source importer.
func (c *reachChecker) Import(path string) (*types.Package, error) {
	p, ok := c.pkgs[path]
	if !ok {
		return c.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	if c.checking[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	c.checking[path] = true
	p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: c}
	tp, err := conf.Check(path, c.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	return tp, nil
}

// unreached returns the exported identifiers outside bench/ that no
// non-test code names and no exemption covers, as "pkg.Name" or
// "pkg.Type.Method", sorted.
func (c *reachChecker) unreached() []string {
	used := map[types.Object]bool{}
	for _, p := range c.pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
	}
	for obj := range c.viaInterface() {
		used[obj] = true
	}
	forTests := c.docSaysForTests()
	var out []string
	report := func(p *reachPkg, obj types.Object, name string) {
		if obj.Exported() && !used[obj] && !forTests[obj.Pos()] {
			out = append(out, strings.TrimPrefix(p.path, "repro/")+"."+name)
		}
	}
	for _, p := range c.pkgs {
		if p.user || p.types.Name() == "main" {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			report(p, obj, name)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				report(p, m, name+"."+m.Name())
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					m := iface.ExplicitMethod(i)
					report(p, m, name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// viaInterface returns the methods that a named type of the module
// reaches an interface with: for every type T or *T that implements one
// of the module's interfaces or a standard one a caller converts to, the
// method each interface method resolves to, whether T declares it or
// gets it by embedding.
func (c *reachChecker) viaInterface() map[types.Object]bool {
	var ifaces []*types.Interface
	var named []*types.Named
	for _, p := range c.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := n.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, iface)
			} else {
				named = append(named, n)
			}
		}
	}
	for _, std := range [][2]string{
		{"fmt", "Stringer"},
		{"encoding/json", "Marshaler"},
		{"net/http", "ResponseWriter"},
		{"net/http", "Flusher"},
	} {
		pkg, err := c.std.Import(std[0])
		if err != nil {
			continue
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(std[1]).Type().Underlying().(*types.Interface))
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	reached := map[types.Object]bool{}
	for _, n := range named {
		for _, recv := range []types.Type{n, types.NewPointer(n)} {
			for _, iface := range ifaces {
				if !types.Implements(recv, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(recv, false, m.Pkg(), m.Name()); obj != nil {
						reached[origin(obj)] = true
					}
				}
			}
		}
	}
	return reached
}

// docSaysForTests returns the positions of the declared names whose
// doc comment says they exist "for tests".
func (c *reachChecker) docSaysForTests() map[token.Pos]bool {
	marked := map[token.Pos]bool{}
	mark := func(doc *ast.CommentGroup, names ...*ast.Ident) {
		if doc != nil && strings.Contains(strings.ToLower(doc.Text()), "for tests") {
			for _, id := range names {
				marked[id.Pos()] = true
			}
		}
	}
	for _, p := range c.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					mark(d.Doc, d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							mark(d.Doc, s.Name)
							mark(s.Doc, s.Name)
						case *ast.ValueSpec:
							mark(d.Doc, s.Names...)
							mark(s.Doc, s.Names...)
						}
					}
				}
			}
		}
	}
	return marked
}

// origin maps a method or field of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
