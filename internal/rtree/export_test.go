package rtree

import (
	"context"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/simdisk"
)

// Probes the package's tests read through. Nothing outside tests needs
// them, so they live here. Those that read pages panic on a read error: the
// tests' devices inject no faults.

// NumObjects returns the number of indexed objects.
func (t *Tree) NumObjects() int { return t.numObjs }

// NumLeaves returns the number of leaf pages: the file's pages that are not
// node pages.
func (t *Tree) NumLeaves() int {
	if t.numObjs == 0 {
		return 0
	}
	_, nodes, err := t.leafEntries()
	if err != nil {
		panic(err)
	}
	pages, err := t.dev.NumPages(t.file)
	if err != nil {
		panic(err)
	}
	return int(pages) - nodes
}

// Height returns the number of node levels above the leaves (0 for an
// empty tree): one more than the root node's level.
func (t *Tree) Height() int {
	if t.numObjs == 0 {
		return 0
	}
	_, level := t.rootNode()
	return level + 1
}

// Bounds returns the root MBR, the union of the root node's entries (zero
// Box for an empty tree).
func (t *Tree) Bounds() geom.Box {
	if t.numObjs == 0 {
		return geom.Box{}
	}
	entries, _ := t.rootNode()
	b := entries[0].box
	for _, e := range entries[1:] {
		b = b.Union(e.box)
	}
	return b
}

// rootNode reads and decodes the root node page.
func (t *Tree) rootNode() ([]entry, int) {
	buf := make([]byte, simdisk.PageSize)
	if err := t.dev.ReadPageCtx(context.Background(), t.file, t.rootPage, buf); err != nil {
		panic(err)
	}
	entries, level, err := decodeNode(buf)
	if err != nil {
		panic(err)
	}
	return entries, level
}

// LeafMBRs returns the MBR and page index of every leaf by scanning the
// level-0 node pages, for the tests' packing invariants.
func (t *Tree) LeafMBRs() ([]geom.Box, []int64, error) {
	leaves, _, err := t.leafEntries()
	if err != nil {
		return nil, nil, err
	}
	var boxes []geom.Box
	var pages []int64
	for _, e := range leaves {
		boxes = append(boxes, e.box)
		pages = append(pages, e.child)
	}
	return boxes, pages, nil
}

// leafEntries walks every node page from the root and returns the level-0
// entries, one per leaf, and the number of node pages visited.
func (t *Tree) leafEntries() (leaves []entry, nodes int, err error) {
	if t.numObjs == 0 {
		return nil, 0, nil
	}
	buf := make([]byte, simdisk.PageSize)
	var visit func(page int64) error
	visit = func(page int64) error {
		if err := t.dev.ReadPageCtx(context.Background(), t.file, page, buf); err != nil {
			return err
		}
		nodes++
		entries, level, err := decodeNode(buf)
		if err != nil {
			return err
		}
		if level == 0 {
			leaves = append(leaves, entries...)
			return nil
		}
		for _, e := range entries {
			if err := visit(e.child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(t.rootPage); err != nil {
		return nil, 0, err
	}
	return leaves, nodes, nil
}
