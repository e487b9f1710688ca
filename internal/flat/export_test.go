package flat

import (
	"context"

	"spaceodyssey/internal/object"
	"spaceodyssey/internal/simdisk"
)

// Probes the package's tests read through. Nothing outside tests needs
// them, so they live here.

// NumObjects returns the number of indexed objects, counted on the dense
// leaf pages. It panics on a read error: the tests' devices inject no faults.
func (idx *Index) NumObjects() int {
	buf := make([]byte, simdisk.PageSize)
	n := 0
	for _, l := range idx.leaves {
		if err := idx.dev.ReadPageCtx(context.Background(), idx.file, l.page, buf); err != nil {
			panic(err)
		}
		objs, err := object.DecodePage(buf)
		if err != nil {
			panic(err)
		}
		n += len(objs)
	}
	return n
}

// NumLeaves returns the number of dense leaf pages.
func (idx *Index) NumLeaves() int { return len(idx.leaves) }
