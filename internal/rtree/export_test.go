package rtree

import (
	"context"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/simdisk"
)

// Probes the package's tests read through. Nothing outside tests needs
// them, so they live here.

// NumObjects returns the number of indexed objects.
func (t *Tree) NumObjects() int { return t.numObjs }

// NumLeaves returns the number of leaf pages.
func (t *Tree) NumLeaves() int { return t.numLeafs }

// Height returns the number of node levels above the leaves.
func (t *Tree) Height() int { return t.height }

// Bounds returns the root MBR (zero Box for an empty tree).
func (t *Tree) Bounds() geom.Box { return t.bounds }

// LeafMBRs returns the MBR and page index of every leaf by scanning the
// level-0 node pages, for the tests' packing invariants.
func (t *Tree) LeafMBRs() ([]geom.Box, []int64, error) {
	var boxes []geom.Box
	var pages []int64
	if t.numObjs == 0 {
		return nil, nil, nil
	}
	buf := make([]byte, simdisk.PageSize)
	var visit func(page int64) error
	visit = func(page int64) error {
		if err := t.dev.ReadPageCtx(context.Background(), t.file, page, buf); err != nil {
			return err
		}
		entries, level, err := decodeNode(buf)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if level > 0 {
				if err := visit(e.child); err != nil {
					return err
				}
			} else {
				boxes = append(boxes, e.box)
				pages = append(pages, e.child)
			}
		}
		return nil
	}
	if err := visit(t.rootPage); err != nil {
		return nil, nil, err
	}
	return boxes, pages, nil
}
