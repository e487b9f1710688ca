package odyssey

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sourceTree type-checks the repository's non-test Go files from source —
// both modules, commands and examples included — recording what every
// identifier refers to in one shared Info. Standard-library imports are
// type-checked from source too, so the check needs no build cache.
type sourceTree struct {
	fset  *token.FileSet
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
}

func newSourceTree() *sourceTree {
	fset := token.NewFileSet()
	return &sourceTree{
		fset:  fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		std:   importer.ForCompiler(fset, "source", nil),
	}
}

// add parses the file name of the package imp (from src, or from disk when
// src is nil). A test file is left out: what only tests use is what the
// censuses look for.
func (s *sourceTree) add(imp, name string, src any) error {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return nil
	}
	f, err := parser.ParseFile(s.fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	s.files[imp] = append(s.files[imp], f)
	return nil
}

// check type-checks every package added.
func (s *sourceTree) check() error {
	for imp := range s.files {
		if _, err := s.Import(imp); err != nil {
			return fmt.Errorf("type-checking %s: %w", imp, err)
		}
	}
	return nil
}

// repoTree is the repository's source tree, loaded once per test binary.
var repoTree = sync.OnceValues(func() (*sourceTree, error) {
	s := newSourceTree()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		imp := "spaceodyssey"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			imp += "/" + dir
		}
		return s.add(imp, path, nil)
	})
	if err != nil {
		return nil, err
	}
	return s, s.check()
})

// loadSourceTree parses every package under the working directory (the root
// module's directory; the benchmark module's import paths sit under it) and
// type-checks them all.
func loadSourceTree(t *testing.T) *sourceTree {
	t.Helper()
	s, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Import checks a repository package from its parsed files, once, and hands
// every other path to the standard-library importer.
func (s *sourceTree) Import(path string) (*types.Package, error) {
	if p := s.pkgs[path]; p != nil {
		return p, nil
	}
	files, ok := s.files[path]
	if !ok {
		return s.std.Import(path)
	}
	conf := types.Config{Importer: s}
	p, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = p
	return p, nil
}

// used returns every object some non-test file refers to outside its own
// declaration, and, separately, every interface method referred to.
func (s *sourceTree) used() (objs map[types.Object]bool, ifaceMethods []*types.Func) {
	objs = map[types.Object]bool{}
	for _, files := range s.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				var own types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					own = s.info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := s.info.Uses[id]
					if obj == nil || obj == own {
						return true
					}
					if fn, ok := obj.(*types.Func); ok {
						fn = fn.Origin()
						if !objs[fn] && isInterfaceMethod(fn) {
							ifaceMethods = append(ifaceMethods, fn)
						}
						obj = fn
					}
					objs[obj] = true
					return true
				})
			}
		}
	}
	return objs, ifaceMethods
}

// isInterfaceMethod reports whether fn is a method of an interface type.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// declared lists what a package declares that a caller can use, by
// qualified name (cluster.Router.Query; a command or example by its
// directory, odyssey-bench.run): its functions but main and init, its
// func-valued package vars, the methods of its named types and the explicit
// methods of its interfaces.
func declared(pkg *types.Package) map[string]types.Object {
	qual := pkg.Name()
	if qual == "main" {
		qual = path.Base(pkg.Path())
	}
	out := map[string]types.Object{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if name != "init" && !(name == "main" && pkg.Name() == "main") {
				out[qual+"."+name] = obj
			}
		case *types.Var:
			if _, ok := obj.Type().Underlying().(*types.Signature); ok {
				out[qual+"."+name] = obj
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					m := iface.ExplicitMethod(i)
					out[qual+"."+name+"."+m.Name()] = m
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				out[qual+"."+name+"."+m.Name()] = m
			}
		}
	}
	return out
}

// receiver returns the named type a method is declared on, or nil for a
// function.
func receiver(m *types.Func) types.Type {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return p.Elem()
	}
	return recv.Type()
}

// implementsOne reports whether method m's type implements one of ifaces and
// m is a method of that interface.
func implementsOne(m *types.Func, ifaces []*types.Interface) bool {
	typ := receiver(m)
	if typ == nil {
		return false
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == m.Name() && types.Implements(types.NewPointer(typ), iface) {
				return true
			}
		}
	}
	return false
}

// implementsUsed reports whether method m implements one of the interface
// methods some non-test file calls.
func implementsUsed(m *types.Func, ifaceMethods []*types.Func) bool {
	for _, im := range ifaceMethods {
		iface := receiver(im).Underlying().(*types.Interface)
		if im.Name() == m.Name() && implementsOne(m, []*types.Interface{iface}) {
			return true
		}
	}
	return false
}

// stdCallbacks are the standard-library interfaces whose methods the
// standard library calls on a value handed to it (container/heap, sort,
// encoding/json and the text codecs): such a method has a caller no
// repository file shows.
var stdCallbacks = []struct{ pkg, name string }{
	{"container/heap", "Interface"},
	{"sort", "Interface"},
	{"encoding", "TextMarshaler"},
	{"encoding", "TextUnmarshaler"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
}

// callers maps every name declared outside the benchmark module to whether
// it has a caller. A name counts as called when a non-test file anywhere —
// the benchmark, the commands and the examples included — uses it outside
// its own declaration. A method also counts when it implements an interface
// method that is called, or a method of one of stdCallbacks; Error, Unwrap,
// Is and String count always. The census is type-aware, so Router.ResetStats
// is not mistaken for Explorer.ResetStats, and it is one pass: a name whose
// only caller is itself uncalled shows once that caller goes.
func (s *sourceTree) callers() (map[string]bool, error) {
	var std []*types.Interface
	for _, cb := range stdCallbacks {
		p, err := s.Import(cb.pkg)
		if err != nil {
			return nil, err
		}
		std = append(std, p.Scope().Lookup(cb.name).Type().Underlying().(*types.Interface))
	}
	objs, ifaceMethods := s.used()
	out := map[string]bool{}
	for imp, pkg := range s.pkgs {
		if imp == "spaceodyssey/benchmark" || strings.HasPrefix(imp, "spaceodyssey/benchmark/") {
			continue
		}
		for name, obj := range declared(pkg) {
			called := objs[obj]
			if fn, ok := obj.(*types.Func); ok && !called && receiver(fn) != nil && !isInterfaceMethod(fn) {
				called = slices.Contains([]string{"Error", "Unwrap", "Is", "String"}, fn.Name()) ||
					implementsUsed(fn, ifaceMethods) || implementsOne(fn, std)
			}
			out[name] = called
		}
	}
	return out, nil
}

// withoutCallers keeps the names that stay although nothing outside tests
// calls them, each with its reason.
var withoutCallers = map[string]string{
	"odyssey.Explorer.MaintenanceErr": "stores the most recent background maintenance fault so it can be detected; the storm tests assert on it",
	"core.Odyssey.LayoutSignature":    "the layout oracle: core's sync-versus-async tests compare layouts through it, and the root package's TestPaperClockPinned pins its hash",
	"core.MergeFile.File":             "how tests reach a merge file's pages: the root and cluster fault tests fault every one, TestPaperClockPinned hashes them",
	"octree.Partition.Extent":         "the walk reads the extent inline; octree's extent tests and the root package's skip test check the skip rule through it",
	"geom.Box.Intersection":           "tests of five packages clip their random query cubes to the data bounds with it, and geom's fuzz target checks it against Intersects",
}

// TestEverythingHasACaller: every function, method, func-valued package var
// and interface method the repository declares outside the benchmark module
// has a caller outside tests (see callers), or is on withoutCallers.
func TestEverythingHasACaller(t *testing.T) {
	called, err := loadSourceTree(t).callers()
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for name, ok := range called {
		_, allowed := withoutCallers[name]
		switch {
		case ok && allowed:
			t.Errorf("%s is on the allowlist but has a caller: take it off", name)
		case !ok && !allowed:
			missing = append(missing, name)
		}
	}
	slices.Sort(missing)
	if len(missing) > 0 {
		t.Errorf("%d names have no caller outside tests:\n  %s\n"+
			"delete each with the tests that test only it, move a probe only its own package's tests use into "+
			"a _test.go file of that package, or put it on withoutCallers with its reason",
			len(missing), strings.Join(missing, "\n  "))
	}
	for name := range withoutCallers {
		if _, ok := called[name]; !ok {
			t.Errorf("allowlisted %s is not declared: take it off", name)
		}
	}
}

// TestCallerCensusCatches holds the census to what it is for, on sources
// written for it: it flags exactly the names that only a test, or only the
// name itself, calls, and none that the standard library or a call through
// an interface reaches.
func TestCallerCensusCatches(t *testing.T) {
	sources := map[string]string{
		"p/p.go": `package p

import "container/heap"

type Shape interface{ Area() float64 }

type Outline interface{ Perimeter() float64 }

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) Perimeter() float64 { return 4 * s.Side }

func (s Square) MarshalText() ([]byte, error) { return []byte("square"), nil }

func (s Square) Halve(n int) float64 {
	if n == 0 {
		return s.Side
	}
	return Square{s.Side / 2}.Halve(n - 1)
}

func Total(shapes []Shape) (sum float64) {
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

type ints []int

func (h ints) Len() int           { return len(h) }
func (h ints) Less(i, j int) bool { return h[i] < h[j] }
func (h ints) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *ints) Push(x any)        { *h = append(*h, x.(int)) }
func (h *ints) Pop() any {
	x := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return x
}

func Smallest(xs []int) int {
	h := ints(xs)
	heap.Init(&h)
	return heap.Pop(&h).(int)
}

func OnlyTested() int { return 1 }

var Double = func(x int) int { return 2 * x }
`,
		"p/p_test.go": `package p

func use() float64 { return float64(OnlyTested()+Double(1)) + Square{}.Perimeter() }
`,
		"cmd/demo/main.go": `package main

import "spaceodyssey/p"

func main() {
	_ = p.Total([]p.Shape{p.Square{Side: 1}})
	_ = p.Smallest([]int{3, 1})
}
`,
	}
	s := newSourceTree()
	for name, src := range sources {
		if err := s.add("spaceodyssey/"+path.Dir(name), name, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
	called, err := s.callers()
	if err != nil {
		t.Fatal(err)
	}
	var flagged []string
	for name, ok := range called {
		if !ok {
			flagged = append(flagged, name)
		}
	}
	slices.Sort(flagged)
	want := []string{"p.Double", "p.OnlyTested", "p.Outline.Perimeter", "p.Square.Halve", "p.Square.Perimeter"}
	if !slices.Equal(flagged, want) {
		t.Errorf("flagged %q, want %q", flagged, want)
	}
}

// setters returns the fields of the root package's Options that some
// non-test file outside examples/ sets: as a composite-literal key, as the
// target of a selector assignment or increment, or as a string key of a
// composite literal in benchmark/presets.go (the frozen benchmark names its
// presets' fields as strings). The root package's own assignments do not
// count: newExplorer defaulting what its caller left zero sets no knob.
func (s *sourceTree) setters() map[string]bool {
	st := s.pkgs["spaceodyssey"].Scope().Lookup("Options").Type().Underlying().(*types.Struct)
	fields := map[types.Object]bool{}
	names := map[string]bool{}
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i)] = true
		names[st.Field(i).Name()] = true
	}
	set := map[string]bool{}
	mark := func(id *ast.Ident) {
		if obj := s.info.Uses[id]; fields[obj] {
			set[obj.Name()] = true
		}
	}
	targets := func(exprs ...ast.Expr) {
		for _, e := range exprs {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				mark(sel.Sel)
			}
		}
	}
	for imp, files := range s.files {
		own := imp == "spaceodyssey"
		for _, f := range files {
			name := filepath.ToSlash(s.fset.Position(f.Pos()).Filename)
			if strings.HasPrefix(name, "examples/") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := x.Key.(*ast.Ident); ok {
						mark(id)
					}
					if lit, ok := x.Key.(*ast.BasicLit); ok && lit.Kind == token.STRING && name == "benchmark/presets.go" {
						if key, err := strconv.Unquote(lit.Value); err == nil && names[key] {
							set[key] = true
						}
					}
				case *ast.AssignStmt:
					if !own {
						targets(x.Lhs...)
					}
				case *ast.IncDecStmt:
					if !own {
						targets(x.X)
					}
				}
				return true
			})
		}
	}
	return set
}

// TestSetterCensusCatches holds the Options census to its rule, on sources
// written for it: a composite-literal key, a selector assignment or
// increment and a presets.go string key set a field; a test, an example, the root package's
// own defaulting and a same-named field of another type do not.
func TestSetterCensusCatches(t *testing.T) {
	sources := map[string]string{
		"odyssey.go": `package odyssey

type Options struct{ Literal, Assigned, Incremented, Named, Defaulted, Example, Tested, Other int }

func NewExplorer(opts Options) Options {
	if opts.Defaulted == 0 {
		opts.Defaulted = 1
	}
	return opts
}
`,
		"odyssey_test.go": `package odyssey

var _ = Options{Tested: 1}
`,
		"cmd/demo/main.go": `package main

import odyssey "spaceodyssey"

type other struct{ Other int }

func main() {
	opts := odyssey.Options{Literal: 1}
	opts.Assigned = 2
	opts.Incremented++
	o := other{Other: 1}
	o.Other = 2
	_ = odyssey.NewExplorer(opts)
}
`,
		"examples/demo/main.go": `package main

import odyssey "spaceodyssey"

func main() { _ = odyssey.NewExplorer(odyssey.Options{Example: 1}) }
`,
		"benchmark/presets.go": `package main

var preset = map[string]any{"Named": true, "Missing": 1}

func main() {}
`,
	}
	s := newSourceTree()
	for name, src := range sources {
		imp := "spaceodyssey"
		if dir := path.Dir(name); dir != "." {
			imp += "/" + dir
		}
		if err := s.add(imp, name, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for name := range s.setters() {
		got = append(got, name)
	}
	slices.Sort(got)
	if want := []string{"Assigned", "Incremented", "Literal", "Named"}; !slices.Equal(got, want) {
		t.Errorf("setters found %q, want %q", got, want)
	}
}
