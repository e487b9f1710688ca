package odyssey

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestDetachCensus pins the one place library code detaches a context from
// its cancellation: simdisk.Detach, which re-attaches the QoS scope on top.
// A bare context.WithoutCancel anywhere else makes every page operation under
// it allocate, because the scope lookup each one makes boxes the detached
// context on its way down.
func TestDetachCensus(t *testing.T) {
	want := []string{"internal/simdisk/qos.go Detach context.WithoutCancel"}
	if got := librarySites(t, "context", []string{"WithoutCancel"}); !slices.Equal(got, want) {
		t.Errorf("library context.WithoutCancel sites:\n  %s\nwant:\n  %s\n"+
			"detach with simdisk.Detach, which keeps the scope lookup allocation-free",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestUnsafeCensus pins the one file outside benchmark/ that imports unsafe:
// internal/object/object.go, whose recordBytes lets the page codec move a
// page's records as one copy of the objects' memory, on the layout and byte
// order its init checks. A second importer would be a second memory-layout
// assumption that no such check guards.
func TestUnsafeCensus(t *testing.T) {
	s := loadSourceTree(t)
	var got []string
	for imp, files := range s.files {
		if dir, _, _ := strings.Cut(strings.TrimPrefix(imp, "spaceodyssey/"), "/"); dir == "benchmark" {
			continue
		}
		for _, f := range files {
			for _, spec := range f.Imports {
				if spec.Path.Value == `"unsafe"` {
					got = append(got, filepath.ToSlash(s.fset.Position(f.Pos()).Filename))
				}
			}
		}
	}
	slices.Sort(got)
	if want := []string{"internal/object/object.go"}; !slices.Equal(got, want) {
		t.Errorf("non-test files importing unsafe outside benchmark/:\n  %s\nwant:\n  %s\n"+
			"the page codec's recordBytes is the one view of memory as bytes",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
