package odyssey

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
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

// loadSourceTree parses every package under the working directory (the root
// module's directory; the benchmark module's import paths sit under it) and
// type-checks them all.
func loadSourceTree(t *testing.T) *sourceTree {
	t.Helper()
	fset := token.NewFileSet()
	s := &sourceTree{
		fset:  fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		std:   importer.ForCompiler(fset, "source", nil),
	}
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imp := "spaceodyssey"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			imp += "/" + dir
		}
		s.files[imp] = append(s.files[imp], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for imp := range s.files {
		if _, err := s.Import(imp); err != nil {
			t.Fatalf("type-checking %s: %v", imp, err)
		}
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

// used returns every function and method some non-test file refers to
// outside the function's own declaration, and, separately, every interface
// method referred to.
func (s *sourceTree) used() (funcs map[*types.Func]bool, ifaceMethods []*types.Func) {
	funcs = map[*types.Func]bool{}
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
					fn, ok := s.info.Uses[id].(*types.Func)
					if !ok || fn == own {
						return true
					}
					fn = fn.Origin()
					if !funcs[fn] && isInterfaceMethod(fn) {
						ifaceMethods = append(ifaceMethods, fn)
					}
					funcs[fn] = true
					return true
				})
			}
		}
	}
	return funcs, ifaceMethods
}

// isInterfaceMethod reports whether fn is a method of an interface type.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// exportedFuncs lists a package's exported functions and the exported
// methods of its named, non-alias, non-interface types, by qualified name
// (cluster.Router.Query).
func exportedFuncs(pkg *types.Package) map[string]*types.Func {
	out := map[string]*types.Func{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				out[pkg.Name()+"."+name] = obj
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out[pkg.Name()+"."+name+"."+m.Name()] = m
				}
			}
		}
	}
	return out
}

// implementsUsed reports whether method m implements one of the interface
// methods some non-test file calls.
func implementsUsed(m *types.Func, ifaceMethods []*types.Func) bool {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	for _, im := range ifaceMethods {
		if im.Name() != m.Name() {
			continue
		}
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(types.NewPointer(typ), iface) {
			return true
		}
	}
	return false
}

// exportsWithoutCallers keeps the names that stay although nothing outside
// tests calls them, each with its reason.
var exportsWithoutCallers = map[string]string{
	"odyssey.Explorer.MaintenanceErr": "stores the first background maintenance fault so it can be detected; the storm tests assert on it",
	"odyssey.Explorer.DeviceStats":    "one of the stats accessors ROADMAP item 8 folds into one snapshot",
	"odyssey.Dispatcher.WorkerStats":  "one of the stats accessors ROADMAP item 8 folds into one snapshot",
}

// TestExportsHaveCallers: every exported function and method of the root and
// cluster packages is used by a non-test file of the repository other than
// its own declaration — the benchmark, the commands and the examples count.
// A method also counts as used when an interface method it implements is,
// and Error, Unwrap, Is and String count always. The check is type-aware, so
// Router.ResetStats is not mistaken for Explorer.ResetStats.
func TestExportsHaveCallers(t *testing.T) {
	s := loadSourceTree(t)
	funcs, ifaceMethods := s.used()
	declared := exportedFuncs(s.pkgs["spaceodyssey"])
	maps.Copy(declared, exportedFuncs(s.pkgs["spaceodyssey/cluster"]))
	var missing []string
	for name, fn := range declared {
		_, allowed := exportsWithoutCallers[name]
		switch {
		case slices.Contains([]string{"Error", "Unwrap", "Is", "String"}, fn.Name()):
		case funcs[fn] || implementsUsed(fn, ifaceMethods):
			if allowed {
				t.Errorf("%s is on the allowlist but has a caller: take it off", name)
			}
		case !allowed:
			missing = append(missing, name)
		}
	}
	slices.Sort(missing)
	if len(missing) > 0 {
		t.Errorf("%d exported functions have no caller outside tests:\n  %s\n"+
			"delete each with the tests that test only it, or put it on exportsWithoutCallers with its reason",
			len(missing), strings.Join(missing, "\n  "))
	}
	for name := range exportsWithoutCallers {
		if declared[name] == nil {
			t.Errorf("allowlisted %s is not declared: take it off", name)
		}
	}
}
