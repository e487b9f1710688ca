// Package flat reimplements FLAT (Tauheed et al., "Accelerating Range
// Queries For Brain Simulations", ICDE'12), the paper's strongest baseline
// for query performance. FLAT densely packs objects into leaf pages
// (Sort-Tile-Recursive order), links each leaf to its spatial neighbors on
// disk, and answers a range query in two phases:
//
//  1. seed — find *one* leaf intersecting the query through a small index
//     (here: an STR tree over the leaf MBRs probed with FirstHit);
//  2. crawl — breadth-first traversal of the neighbor links, reading only
//     leaves that intersect the query.
//
// This gives FLAT the most expensive build of all approaches (full STR sort
// plus neighborhood-graph construction) and the cheapest queries — the
// trade-off the paper's Figures 4 and 5 show.
package flat

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"spaceodyssey/internal/simdisk"
)

// adjLoc locates one leaf's adjacency record inside the adjacency file.
type adjLoc struct {
	page int64
	off  int32
	n    int32
}

// ErrAdjCorrupt reports an unreadable adjacency record.
var ErrAdjCorrupt = errors.New("flat: corrupt adjacency record")

// adjacencyStore keeps per-leaf neighbor lists on disk, packed into pages.
// Records hold neighbor leaf ids only (4 bytes each) — the leaf-MBR
// directory is memory-resident metadata, as in FLAT — so hundreds of
// records fit per page and crawls of nearby leaves (consecutive in STR
// order) usually touch a single adjacency page.
type adjacencyStore struct {
	dev  simdisk.Storage
	file simdisk.FileID
	locs []adjLoc
}

// buildAdjacency writes the neighbor lists to a new device file with
// sequential appends.
func buildAdjacency(dev simdisk.Storage, name string, lists [][]uint32) (*adjacencyStore, error) {
	s := &adjacencyStore{
		dev:  dev,
		file: dev.CreateFileInGroup(name, ""),
		locs: make([]adjLoc, len(lists)),
	}
	page := make([]byte, simdisk.PageSize)
	off := 0
	pageIdx := int64(0)
	dirty := false
	for i, list := range lists {
		recSize := 4 + len(list)*4
		if recSize > simdisk.PageSize {
			return nil, fmt.Errorf("flat: adjacency record for leaf %d too large (%d neighbors)",
				i, len(list))
		}
		if off+recSize > simdisk.PageSize {
			if _, err := dev.AppendPageCtx(context.Background(), s.file, page); err != nil {
				return nil, err
			}
			page = make([]byte, simdisk.PageSize)
			off = 0
			pageIdx++
			dirty = false
		}
		s.locs[i] = adjLoc{page: pageIdx, off: int32(off), n: int32(len(list))}
		binary.LittleEndian.PutUint32(page[off:], uint32(len(list)))
		off += 4
		for _, id := range list {
			binary.LittleEndian.PutUint32(page[off:], id)
			off += 4
		}
		dirty = true
	}
	if dirty {
		if _, err := dev.AppendPageCtx(context.Background(), s.file, page); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// neighbors reads the adjacency record of leaf id (one page read, usually a
// cache hit for leaves visited in the same crawl).
func (s *adjacencyStore) neighbors(id int) ([]uint32, error) {
	if id < 0 || id >= len(s.locs) {
		return nil, fmt.Errorf("flat: leaf %d out of range", id)
	}
	loc := s.locs[id]
	buf := make([]byte, simdisk.PageSize)
	if err := s.dev.ReadPageCtx(context.Background(), s.file, loc.page, buf); err != nil {
		return nil, err
	}
	off := int(loc.off)
	if off+4 > len(buf) {
		return nil, ErrAdjCorrupt
	}
	n := int(binary.LittleEndian.Uint32(buf[off:]))
	if n != int(loc.n) || off+4+n*4 > len(buf) {
		return nil, ErrAdjCorrupt
	}
	off += 4
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(buf[off:])
		off += 4
	}
	return out, nil
}
