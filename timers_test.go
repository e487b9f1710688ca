package odyssey

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// wallClockCalls are the time functions that wait on the wall clock.
var wallClockCalls = []string{"NewTicker", "NewTimer", "Sleep", "After", "AfterFunc", "Tick"}

// timerSites lists every wall-clock timer, ticker or sleep in the module's
// library code as "file function time.Call", sorted.
func timerSites(t *testing.T) []string {
	return librarySites(t, "time", wallClockCalls)
}

// librarySites lists every call of one of calls from the standard package
// pkg (an import path of one element, such as "time") in the module's
// library code as "file function pkg.Call", sorted. Commands, examples and
// the benchmark module are not library code; neither are tests.
func librarySites(t *testing.T, pkg string, calls []string) []string {
	t.Helper()
	var sites []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" ||
				slices.Contains([]string{"cmd", "examples", "benchmark"}, path)) {
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
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == pkg {
				local = pkg
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == local && slices.Contains(calls, sel.Sel.Name) {
					sites = append(sites, filepath.ToSlash(path)+" "+funcName(fn)+" "+pkg+"."+sel.Sel.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(sites)
	return sites
}

// funcName names a function declaration the way a reader looks it up:
// Func or (*Type).Method.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := types.ExprString(fn.Recv.List[0].Type)
	if strings.HasPrefix(recv, "*") {
		recv = "(" + recv + ")"
	}
	return recv + "." + fn.Name.Name
}

// TestTimerSiteCensus pins the library's wall-clock timer sites: each one is
// a control loop that virtual time must drive through an injected clock, so
// the list may shrink but must not grow unnoticed.
func TestTimerSiteCensus(t *testing.T) {
	want := []string{
		"dispatcher.go (*Dispatcher).batcher time.NewTimer",
		"internal/simdisk/cancel.go sleepCtx time.NewTimer",
	}
	if got := timerSites(t); !slices.Equal(got, want) {
		t.Errorf("library wall-clock timer sites:\n  %s\nwant:\n  %s\n"+
			"every site is one more loop ROADMAP item 6 (virtual time) must drive through an injected clock: "+
			"reuse an existing loop or take the clock instead of adding one, and update this list only when a site goes",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
