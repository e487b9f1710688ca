package simdisk

import (
	"reflect"
	"slices"
	"testing"
)

// TestStorageMethodSet pins the data-path interface to its fifteen methods,
// so it cannot re-accrete: a method added for one caller's convenience must
// go on the concrete type or on Control, and a second flavour of an I/O
// method fails here.
func TestStorageMethodSet(t *testing.T) {
	want := []string{
		"AppendPageCtx", "AwaitMaintenanceTurn", "Clock", "Close",
		"CreateFileInGroup", "DeleteFile", "DropCaches", "NumPages",
		"ReadPageCtx", "ReadRunCtx", "ResetClock", "ResetStats",
		"Stats", "TotalPages", "WritePageCtx",
	}
	storage := reflect.TypeOf((*Storage)(nil)).Elem()
	var got []string
	for i := 0; i < storage.NumMethod(); i++ {
		got = append(got, storage.Method(i).Name) // reflect lists them sorted
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Storage has %d methods %v, want the %d %v", len(got), got, len(want), want)
	}
	for _, impl := range []any{(*Device)(nil), (*DeviceArray)(nil)} {
		if !reflect.TypeOf(impl).Implements(storage) {
			t.Errorf("%T does not implement Storage", impl)
		}
	}
}
