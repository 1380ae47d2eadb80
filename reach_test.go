//go:build !race

// The guard type-checks the standard library from source and runs in
// one goroutine, so the race detector has nothing to check here and
// would only make it seven times slower.

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
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryExportedIdentifierIsReachable keeps the module to what a user
// can reach. It type-checks every non-test package of the module, with
// bench/ (its own module) and the main packages of cmd/ and examples/
// parsed as users, and fails on two lists:
//
//   - each exported identifier of the non-main packages outside bench/
//     that no non-test code names. A method is exempt when non-test code
//     converts a type that declares or promotes it to an interface the
//     method belongs to, or to any interface while the method belongs
//     to one the code asserts to: a type assertion or type switch in the
//     module, or error, fmt.Stringer and json.Marshaler, which fmt and
//     encoding/json assert to.
//   - each struct field outside bench/, exported or not, that non-test
//     code writes (an assignment, op=, ++ or --, or a composite-literal
//     key) and never reads. Fields with a json tag, blank fields and
//     embedded fields are exempt: encoding/json reads tagged and
//     embedded fields without naming them, and so does every selector
//     an embedded field promotes.
//
// An identifier or field whose doc comment says it is "for tests" is
// exempt from both. Delete what the lists name, with the code that keeps
// a field up to date, or move it into the tests that use it.
func TestEveryExportedIdentifierIsReachable(t *testing.T) {
	r, err := checkReach(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.unreached) > 0 {
		t.Errorf("%d exported identifiers outside bench/ are used only by tests (delete them, or say \"for tests\" in a doc comment when a test in another package needs one):\n\t%s",
			len(r.unreached), strings.Join(r.unreached, "\n\t"))
	}
	if len(r.unread) > 0 {
		t.Errorf("%d struct fields outside bench/ are written and never read (delete them with the code that keeps them, or say \"for tests\" in a doc comment when a test needs one):\n\t%s",
			len(r.unread), strings.Join(r.unread, "\n\t"))
	}
}

// TestReachCheckerReportsPlants runs the guard on testdata/reach, a
// module whose plant package holds three things it must report (a String
// method that only tests call, an exported and an unexported write-only
// field) beside controls it must let pass: String and MarshalJSON
// methods that fmt and encoding/json reach through a conversion (the
// latter through a generic type argument), a json-tagged write-only
// field and a write-only field kept for tests.
func TestReachCheckerReportsPlants(t *testing.T) {
	r, err := checkReach(filepath.Join("testdata", "reach"), "reach")
	if err != nil {
		t.Fatal(err)
	}
	got := append(r.unreached, r.unread...)
	want := []string{"plant.Kind.String", "plant.Tally.Misses", "plant.Tally.spills"}
	if !slices.Equal(got, want) {
		t.Errorf("reported %q, want %q", got, want)
	}
}

// reachReport is what the guard finds, each list sorted.
type reachReport struct {
	unreached []string // "pkg.Name" or "pkg.Type.Method"
	unread    []string // "pkg.Type.Field"
}

// The standard library is type-checked from source once per test
// binary, and shared by every load.
var (
	reachFset = token.NewFileSet()
	reachStd  = importer.ForCompiler(reachFset, "source", nil)
)

// reachPkg is one type-checked non-test package.
type reachPkg struct {
	path  string // import path without the module prefix, e.g. "internal/sm"
	files []*ast.File
	types *types.Package
	info  *types.Info
	user  bool // bench/: its uses count, its declarations are not checked
}

type reachChecker struct {
	module   string
	pkgs     map[string]*reachPkg // by import path
	checking map[string]bool

	named   map[types.Object]bool // objects some non-test code names
	reached map[types.Object]bool // methods reached through an interface
	read    map[types.Object]bool // fields some non-test code reads
	written map[types.Object]bool // fields some non-test code writes
}

// checkReach loads the module rooted at dir, whose module path is
// module, and reports what the guard finds in it.
func checkReach(dir, module string) (reachReport, error) {
	c := &reachChecker{
		module:   module,
		pkgs:     map[string]*reachPkg{},
		checking: map[string]bool{},
		named:    map[types.Object]bool{},
		reached:  map[types.Object]bool{},
		read:     map[types.Object]bool{},
		written:  map[types.Object]bool{},
	}
	if err := c.load(dir); err != nil {
		return reachReport{}, err
	}
	var convs []reachConversion
	asserted := stdAsserted()
	for _, p := range c.pkgs {
		for _, obj := range p.info.Uses {
			c.named[origin(obj)] = true
		}
		convs = append(convs, conversionsIn(p)...)
		asserted = append(asserted, assertedIn(p)...)
		c.fieldAccesses(p)
	}
	for _, cv := range convs {
		c.reach(cv, asserted)
	}
	return reachReport{unreached: c.unreached(), unread: c.unread()}, nil
}

// load parses every directory under root that holds a non-test Go
// package and type-checks them all. A directory's import path is the
// module path plus its path under root; bench/ is a user.
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
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		p := &reachPkg{path: filepath.ToSlash(rel)}
		p.user = p.path == "bench" || strings.HasPrefix(p.path, "bench/")
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(reachFset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		path := c.module
		if p.path != "." {
			path += "/" + p.path
		}
		c.pkgs[path] = p
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
		return reachStd.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	if c.checking[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	c.checking[path] = true
	p.info = &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: c}
	tp, err := conf.Check(path, reachFset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	return tp, nil
}

// reachConversion is a value of concrete type from that code converts
// to the interface type to.
type reachConversion struct {
	from types.Type
	to   *types.Interface
}

// conversionsIn returns every conversion of a concrete value to an
// interface in p: an assignment or var declaration, a call argument
// (variadic and append included), a return, a composite-literal
// element, a channel send, an explicit conversion, and a type argument
// converted to its constraint.
func conversionsIn(p *reachPkg) []reachConversion {
	var out []reachConversion
	conv := func(from, to types.Type) {
		if from == nil || to == nil || types.IsInterface(from) || !types.IsInterface(to) {
			return
		}
		if iface, ok := to.Underlying().(*types.Interface); ok {
			out = append(out, reachConversion{from, iface})
		}
	}
	// each converts the values vs, or one call returning a tuple, to the
	// types to(0), to(1), ...
	each := func(vs []ast.Expr, to func(int) types.Type) {
		if len(vs) == 1 {
			if tuple, ok := p.info.TypeOf(vs[0]).(*types.Tuple); ok {
				for i := 0; i < tuple.Len(); i++ {
					conv(tuple.At(i).Type(), to(i))
				}
				return
			}
		}
		for i, v := range vs {
			conv(p.info.TypeOf(v), to(i))
		}
	}
	typeOfLHS := func(e ast.Expr) types.Type {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := p.info.ObjectOf(id); obj != nil {
				return obj.Type()
			}
			return nil
		}
		return p.info.TypeOf(e)
	}
	var visit func(root ast.Node, sig *types.Signature)
	visit = func(root ast.Node, sig *types.Signature) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				visit(n.Body, p.info.TypeOf(n).(*types.Signature))
				return false
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					each(n.Rhs, func(i int) types.Type { return typeOfLHS(n.Lhs[i]) })
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					each(n.Values, func(int) types.Type { return p.info.TypeOf(n.Type) })
				}
			case *ast.ReturnStmt:
				if sig != nil {
					each(n.Results, func(i int) types.Type { return sig.Results().At(i).Type() })
				}
			case *ast.SendStmt:
				if ch, ok := p.info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
					conv(p.info.TypeOf(n.Value), ch.Elem())
				}
			case *ast.CallExpr:
				callConversions(p, n, each, conv)
			case *ast.CompositeLit:
				literalConversions(p, n, conv)
			}
			return true
		})
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd.Body, p.info.Defs[fd.Name].Type().(*types.Signature))
			} else {
				visit(d, nil)
			}
		}
	}
	for id, inst := range p.info.Instances {
		obj := p.info.Uses[id]
		if obj == nil {
			continue
		}
		var params *types.TypeParamList
		switch t := obj.Type().(type) {
		case *types.Signature:
			params = t.TypeParams()
		case *types.Named:
			params = t.TypeParams()
		}
		for i := 0; params != nil && i < inst.TypeArgs.Len(); i++ {
			conv(inst.TypeArgs.At(i), params.At(i).Constraint())
		}
	}
	return out
}

// callConversions reports the conversions a call makes: an explicit
// conversion to an interface type, the elements append adds, or the
// arguments passed to interface-typed parameters.
func callConversions(p *reachPkg, call *ast.CallExpr, each func([]ast.Expr, func(int) types.Type), conv func(from, to types.Type)) {
	fn := p.info.Types[call.Fun]
	switch {
	case fn.IsType():
		each(call.Args, func(int) types.Type { return fn.Type })
	case fn.IsBuiltin():
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && call.Ellipsis == token.NoPos && len(call.Args) > 1 {
			if s, ok := p.info.TypeOf(call.Args[0]).Underlying().(*types.Slice); ok {
				for _, a := range call.Args[1:] {
					conv(p.info.TypeOf(a), s.Elem())
				}
			}
		}
	default:
		sig, ok := fn.Type.Underlying().(*types.Signature)
		if !ok {
			return
		}
		params := sig.Params()
		each(call.Args, func(i int) types.Type {
			if sig.Variadic() && i >= params.Len()-1 {
				last := params.At(params.Len() - 1).Type()
				if call.Ellipsis != token.NoPos {
					return last
				}
				return last.Underlying().(*types.Slice).Elem()
			}
			return params.At(i).Type()
		})
	}
}

// literalConversions reports the conversions a composite literal makes:
// its elements to their field, element or key types.
func literalConversions(p *reachPkg, lit *ast.CompositeLit, conv func(from, to types.Type)) {
	t := p.info.TypeOf(lit)
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for i, e := range lit.Elts {
		kv, keyed := e.(*ast.KeyValueExpr)
		v := e
		if keyed {
			v = kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if keyed {
				if f, ok := p.info.Uses[kv.Key.(*ast.Ident)]; ok {
					conv(p.info.TypeOf(v), f.Type())
				}
			} else {
				conv(p.info.TypeOf(v), u.Field(i).Type())
			}
		case *types.Slice:
			conv(p.info.TypeOf(v), u.Elem())
		case *types.Array:
			conv(p.info.TypeOf(v), u.Elem())
		case *types.Map:
			if keyed {
				conv(p.info.TypeOf(kv.Key), u.Key())
			}
			conv(p.info.TypeOf(v), u.Elem())
		}
	}
}

// stdAsserted returns the interfaces the standard library asserts a
// converted value to on the module's behalf: fmt's Stringer and error,
// and encoding/json's Marshaler.
func stdAsserted() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, std := range [][2]string{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}} {
		if pkg, err := reachStd.Import(std[0]); err == nil {
			out = append(out, pkg.Scope().Lookup(std[1]).Type().Underlying().(*types.Interface))
		}
	}
	return out
}

// assertedIn returns the interface types p asserts to, in type
// assertions and type switch cases.
func assertedIn(p *reachPkg) []*types.Interface {
	var out []*types.Interface
	add := func(e ast.Expr) {
		if e == nil {
			return
		}
		if iface, ok := p.info.TypeOf(e).Underlying().(*types.Interface); ok {
			out = append(out, iface)
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				add(n.Type) // nil in a type switch's guard
			case *ast.TypeSwitchStmt:
				for _, cl := range n.Body.List {
					for _, e := range cl.(*ast.CaseClause).List {
						add(e)
					}
				}
			}
			return true
		})
	}
	return out
}

// reach marks the methods a conversion reaches: those of its target
// interface, and those of every asserted interface the converted type
// implements, whether the type declares them or promotes them from an
// embedded field.
func (c *reachChecker) reach(cv reachConversion, asserted []*types.Interface) {
	n, _ := types.Unalias(deref(cv.from)).(*types.Named)
	if n == nil || n.Obj().Pkg() == nil || c.pkgs[n.Obj().Pkg().Path()] == nil {
		return
	}
	for _, iface := range append([]*types.Interface{cv.to}, asserted...) {
		if iface != cv.to && !types.Implements(cv.from, iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			if obj, _, _ := types.LookupFieldOrMethod(cv.from, false, m.Pkg(), m.Name()); obj != nil {
				c.reached[origin(obj)] = true
			}
		}
	}
}

// fieldAccesses records which fields p reads and which it writes. A
// field is written where it is the target of an assignment, op=, ++ or
// --, or a key of a struct literal; every other use reads it.
func (c *reachChecker) fieldAccesses(p *reachPkg) {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					target(l)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							writes[id] = true
						}
					}
				}
			}
			return true
		})
	}
	for id, obj := range p.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			if writes[id] {
				c.written[origin(v)] = true
			} else {
				c.read[origin(v)] = true
			}
		}
	}
}

// unreached returns the exported identifiers of the non-main packages
// outside bench/ that no non-test code names and no exemption covers,
// as "pkg.Name" or "pkg.Type.Method", sorted.
func (c *reachChecker) unreached() []string {
	forTests := c.docSaysForTests()
	var out []string
	report := func(p *reachPkg, obj types.Object, name string) {
		if obj.Exported() && !c.named[obj] && !c.reached[obj] && !forTests[obj.Pos()] {
			out = append(out, p.path+"."+name)
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

// unread returns the struct fields outside bench/, main packages
// included, that non-test code writes and never reads, as
// "pkg.Type.Field" (a field of an unnamed struct type is named by its
// position), sorted.
func (c *reachChecker) unread() []string {
	var out []string
	for _, p := range c.pkgs {
		if p.user {
			continue
		}
		for _, f := range p.files {
			owner := map[*ast.StructType]string{}
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					ast.Inspect(ts.Type, func(n ast.Node) bool {
						if st, ok := n.(*ast.StructType); ok {
							owner[st] = ts.Name.Name
						}
						return true
					})
				}
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if field.Tag != nil {
						tag, _ := strconv.Unquote(field.Tag.Value)
						if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
							continue
						}
					}
					if saysForTests(field.Doc) {
						continue
					}
					for _, id := range field.Names {
						obj := p.info.Defs[id]
						if id.Name == "_" || obj == nil || !c.written[obj] || c.read[obj] {
							continue
						}
						name, ok := owner[st]
						if !ok {
							pos := reachFset.Position(st.Pos())
							name = fmt.Sprintf("struct@%s:%d", filepath.Base(pos.Filename), pos.Line)
						}
						out = append(out, p.path+"."+name+"."+id.Name)
					}
				}
				return true
			})
		}
	}
	sort.Strings(out)
	return out
}

// docSaysForTests returns the positions of the declared names whose
// doc comment says they exist "for tests".
func (c *reachChecker) docSaysForTests() map[token.Pos]bool {
	marked := map[token.Pos]bool{}
	mark := func(doc *ast.CommentGroup, names ...*ast.Ident) {
		if saysForTests(doc) {
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

func saysForTests(doc *ast.CommentGroup) bool {
	return doc != nil && strings.Contains(strings.ToLower(doc.Text()), "for tests")
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
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
