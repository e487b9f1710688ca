package odyssey

import (
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
