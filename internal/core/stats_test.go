package core

import (
	"math/rand"
	"testing"

	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
)

func TestCollectorCounts(t *testing.T) {
	c := NewCollector()
	key := KeyOf([]object.DatasetID{2, 0})
	if c.Count(key) != 0 {
		t.Fatal("fresh collector has counts")
	}
	if got := c.RecordQuery(key); got != 1 {
		t.Fatalf("first record = %d", got)
	}
	if got := c.RecordQuery(key); got != 2 {
		t.Fatalf("second record = %d", got)
	}
	other := KeyOf([]object.DatasetID{1})
	c.RecordQuery(other)
	if c.Count(key) != 2 || c.Count(other) != 1 {
		t.Fatal("counts mixed up")
	}
	if c.Combinations() != 2 {
		t.Fatalf("Combinations = %d", c.Combinations())
	}
}

func TestCollectorPartitionsDeduplicated(t *testing.T) {
	c := NewCollector()
	key := ComboKey("0,1,2")
	a := octree.Key{Level: 1, X: 1}
	b := octree.Key{Level: 2, X: 5, Y: 3}
	c.RecordPartitions(key, []octree.Key{a, b})
	c.RecordPartitions(key, []octree.Key{a}) // duplicate
	got := c.Partitions(key)
	if len(got) != 2 {
		t.Fatalf("partitions = %v", got)
	}
	// Deterministic order: level first.
	if got[0] != a || got[1] != b {
		t.Fatalf("order = %v", got)
	}
}

func TestCollectorPartitionsOrderDeterministic(t *testing.T) {
	keys := make([]octree.Key, 50)
	r := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = octree.Key{
			Level: uint32(r.Intn(4)),
			X:     uint32(r.Intn(16)), Y: uint32(r.Intn(16)), Z: uint32(r.Intn(16)),
		}
	}
	c1 := NewCollector()
	c2 := NewCollector()
	c1.RecordPartitions("x", keys)
	rev := make([]octree.Key, len(keys))
	for i, k := range keys {
		rev[len(keys)-1-i] = k
	}
	c2.RecordPartitions("x", rev)
	a, b := c1.Partitions("x"), c2.Partitions("x")
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Sorted by level, then z, y, x.
	for i := 1; i < len(a); i++ {
		if a[i].Level < a[i-1].Level {
			t.Fatal("not sorted by level")
		}
	}
}

func TestCollectorReset(t *testing.T) {
	c := NewCollector()
	key := ComboKey("3,4,5")
	c.RecordQuery(key)
	c.RecordPartitions(key, []octree.Key{{Level: 1}})
	c.Reset(key)
	if c.Count(key) != 0 || len(c.Partitions(key)) != 0 {
		t.Fatal("reset did not clear")
	}
	// Resetting an unknown key is a no-op.
	c.Reset("9,9")
}

func TestKeyOfEmptyAndSingle(t *testing.T) {
	if KeyOf(nil) != "" {
		t.Errorf("KeyOf(nil) = %q", KeyOf(nil))
	}
	if KeyOf([]object.DatasetID{7}) != "7" {
		t.Errorf("single = %q", KeyOf([]object.DatasetID{7}))
	}
	// KeyOf must not mutate its argument.
	in := []object.DatasetID{3, 1, 2}
	KeyOf(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("KeyOf mutated input")
	}
}
