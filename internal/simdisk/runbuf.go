package simdisk

import (
	"math/bits"
	"sync"
)

// MaxPooledRunPages bounds what the read path's pools retain: a run buffer
// longer than this (and, above this package, a decoded object slice larger
// than this many pages' worth) is left to the collector instead of pooled,
// so one huge read cannot pin its memory for the rest of the session.
const MaxPooledRunPages = 128

// runBufPool recycles the buffers ReadRunCtx returns. Entries are pointers to
// slices of at most MaxPooledRunPages pages.
var runBufPool sync.Pool

// runBufHeaders recycles the *[]byte headers getRunBuf empties, so that
// PutRunBuf hands a buffer back without allocating a header for it.
var runBufHeaders = sync.Pool{New: func() any { return new([]byte) }}

// poolableRunBuf is the retention bound: whether a buffer of capBytes
// capacity is worth keeping (at least one page, at most the bound).
func poolableRunBuf(capBytes int) bool {
	return capBytes >= PageSize && capBytes <= MaxPooledRunPages*PageSize
}

// getRunBuf returns a buffer of n pages whose content is unspecified: the
// caller overwrites every page. Pooled capacities are powers of two pages,
// so mixed run lengths converge on a few reusable buffers rather than each
// growing the last one by a page.
func getRunBuf(n int64) []byte {
	size := int(n) * PageSize
	if !poolableRunBuf(size) { // a zero-length run, or one past the bound
		return make([]byte, size)
	}
	if p, _ := runBufPool.Get().(*[]byte); p != nil {
		buf := *p
		*p = nil
		runBufHeaders.Put(p)
		if cap(buf) >= size {
			return buf[:size]
		}
	}
	// Pool empty, or its buffer too small (dropped: the pool converges on
	// the larger sizes).
	pages := 1 << bits.Len64(uint64(n-1))
	return make([]byte, size, pages*PageSize)
}

// PutRunBuf hands a buffer returned by ReadRunCtx back for reuse. The caller
// must be done with it — nothing it keeps may alias buf (decoded objects are
// pointer-free values, so they never do). Calling it is optional: a buffer
// never handed back is ordinary garbage, which is what keeps Storage wrappers
// and callers that know nothing of the pool correct. It is a package function
// rather than a Storage method for the same reason.
func PutRunBuf(buf []byte) {
	if !poolableRunBuf(cap(buf)) {
		return
	}
	p := runBufHeaders.Get().(*[]byte)
	*p = buf
	runBufPool.Put(p)
}
