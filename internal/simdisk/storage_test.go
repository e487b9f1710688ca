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

// TestDeviceArrayIsPlacementAndRouting pins the array to the member list and
// the policy that places files on it: routing is arithmetic on the FileID, so
// anything else the array would hold — a table, a lock, a second id space —
// is a second placement granularity and fails here.
func TestDeviceArrayIsPlacementAndRouting(t *testing.T) {
	array := reflect.TypeOf(DeviceArray{})
	var got []string
	for i := 0; i < array.NumField(); i++ {
		got = append(got, array.Field(i).Name)
	}
	if want := []string{"members", "policy"}; !slices.Equal(got, want) {
		t.Fatalf("DeviceArray has fields %v, want exactly %v", got, want)
	}
}
