package rtree

import (
	"context"
	"math"
	"sort"

	"spaceodyssey/internal/object"
	"spaceodyssey/internal/simdisk"
)

// STRPack orders objs with the Sort-Tile-Recursive algorithm and slices them
// into leaves of at most leafCap objects: sort by center x, tile into
// vertical slabs, sort each slab by y, tile again, sort each run by z, pack.
// The input slice is reordered in place; the returned slices alias it.
// It is exported because FLAT packs its dense leaf pages the same way.
func STRPack(objs []object.Object, leafCap int) [][]object.Object {
	n := len(objs)
	if n == 0 {
		return nil
	}
	numLeaves := (n + leafCap - 1) / leafCap
	s := int(math.Ceil(math.Cbrt(float64(numLeaves)))) // slabs per dimension

	sort.Slice(objs, func(i, j int) bool { return objs[i].Center.X < objs[j].Center.X })
	slabX := (n + s - 1) / s
	for xo := 0; xo < n; xo += slabX {
		xEnd := min(xo+slabX, n)
		slab := objs[xo:xEnd]
		sort.Slice(slab, func(i, j int) bool { return slab[i].Center.Y < slab[j].Center.Y })
		slabY := (len(slab) + s - 1) / s
		for yo := 0; yo < len(slab); yo += slabY {
			yEnd := min(yo+slabY, len(slab))
			run := slab[yo:yEnd]
			sort.Slice(run, func(i, j int) bool { return run[i].Center.Z < run[j].Center.Z })
		}
	}

	leaves := make([][]object.Object, 0, numLeaves)
	for off := 0; off < n; off += leafCap {
		leaves = append(leaves, objs[off:min(off+leafCap, n)])
	}
	return leaves
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ChargeExternalSort performs the I/O an external STR sort would: `passes`
// full sequential write+read passes over `pages` pages on a scratch file
// that is deleted afterwards. STR sorts the data once per dimension, so the
// engines charge passes = 3. In-memory ordering itself is free, matching
// the paper's disk-bound methodology. FLAT shares this charge.
func ChargeExternalSort(dev simdisk.Storage, pages int64, passes int) error {
	if pages == 0 || passes == 0 {
		return nil
	}
	scratch := dev.CreateFileInGroup("sort-scratch", "")
	defer dev.DeleteFile(scratch) //nolint:errcheck // best-effort cleanup
	buf := make([]byte, simdisk.PageSize)
	for p := 0; p < passes; p++ {
		if p == 0 {
			for i := int64(0); i < pages; i++ {
				if _, err := dev.AppendPageCtx(context.Background(), scratch, buf); err != nil {
					return err
				}
			}
		} else {
			for i := int64(0); i < pages; i++ {
				if err := dev.WritePageCtx(context.Background(), scratch, i, buf); err != nil {
					return err
				}
			}
		}
		for i := int64(0); i < pages; i++ {
			if err := dev.ReadPageCtx(context.Background(), scratch, i, buf); err != nil {
				return err
			}
		}
	}
	return nil
}
