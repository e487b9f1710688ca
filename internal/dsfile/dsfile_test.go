package dsfile

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/object"
)

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ds3.sod")
	objs := datagen.Generate(datagen.Config{Seed: 1, NumObjects: 1234}, 3)
	if err := Save(path, 3, objs); err != nil {
		t.Fatal(err)
	}
	ds, got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds != 3 {
		t.Fatalf("dataset id = %d", ds)
	}
	if len(got) != len(objs) {
		t.Fatalf("loaded %d objects, want %d", len(got), len(objs))
	}
	for i := range objs {
		if got[i] != objs[i] {
			t.Fatalf("object %d mismatch", i)
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.sod")
	if err := Save(path, 7, nil); err != nil {
		t.Fatal(err)
	}
	ds, got, err := Load(path)
	if err != nil || ds != 7 || len(got) != 0 {
		t.Fatalf("ds=%d n=%d err=%v", ds, len(got), err)
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()

	if _, _, err := Load(filepath.Join(dir, "missing.sod")); err == nil {
		t.Error("missing file loaded")
	}

	bad := filepath.Join(dir, "bad.sod")
	if err := os.WriteFile(bad, []byte("not a dataset file at all......"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}

	short := filepath.Join(dir, "short.sod")
	if err := os.WriteFile(short, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(short); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: %v", err)
	}

	// Valid header claiming more records than present.
	good := filepath.Join(dir, "good.sod")
	objs := datagen.Generate(datagen.Config{Seed: 2, NumObjects: 10}, 1)
	if err := Save(good, 1, objs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "trunc.sod")
	if err := os.WriteFile(truncated, data[:len(data)-object.RecordSize], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(truncated); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated records: %v", err)
	}

	// Unsupported version.
	verBad := append([]byte(nil), data...)
	verBad[4] = 99
	verPath := filepath.Join(dir, "ver.sod")
	if err := os.WriteFile(verPath, verBad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(verPath); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
}

// TestLoadChecksCountBeforeAllocating: a header whose record count the file
// cannot hold is refused as truncated before the records are allocated — a
// count of 1<<62 would panic the allocation, one of 1<<32 would ask for
// 256 GB — as is a file one record short of its count.
func TestLoadChecksCountBeforeAllocating(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.sod")
	if err := Save(good, 1, datagen.Generate(datagen.Config{Seed: 3, NumObjects: 5}, 1)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	claims := func(count uint64) []byte {
		h := append([]byte(nil), data[:headerSize]...)
		binary.LittleEndian.PutUint64(h[16:], count)
		return h
	}
	for _, c := range []struct {
		name string
		file []byte
	}{
		{"claims 1<<62 records", claims(1 << 62)},
		{"claims 1<<32 records", claims(1 << 32)},
		{"one record short", data[:len(data)-object.RecordSize]},
	} {
		path := filepath.Join(dir, "bad.sod")
		if err := os.WriteFile(path, c.file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, objs, err := Load(path); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: loaded %d objects, err %v; want ErrTruncated", c.name, len(objs), err)
		}
	}
}
