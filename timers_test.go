package odyssey

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
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

// librarySites lists every call of one of calls, functions of the standard
// package pkg, in the module's library code as "file function pkg.Call",
// sorted. Calls resolve through the type checker, so a renamed import counts
// and a method of the same name (time.Time.After) does not. Commands,
// examples and the benchmark module are not library code; neither are tests.
func librarySites(t *testing.T, pkg string, calls []string) []string {
	t.Helper()
	s := loadSourceTree(t)
	var sites []string
	for imp, files := range s.files {
		dir, _, _ := strings.Cut(strings.TrimPrefix(imp, "spaceodyssey/"), "/")
		if slices.Contains([]string{"cmd", "examples", "benchmark"}, dir) {
			continue
		}
		for _, f := range files {
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
					callee, ok := s.info.Uses[sel.Sel].(*types.Func)
					if ok && callee.Pkg() != nil && callee.Pkg().Path() == pkg && receiver(callee) == nil &&
						slices.Contains(calls, callee.Name()) {
						site := filepath.ToSlash(s.fset.Position(f.Pos()).Filename)
						sites = append(sites, site+" "+funcName(fn)+" "+pkg+"."+callee.Name())
					}
					return true
				})
			}
		}
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
