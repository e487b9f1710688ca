package simdisk

import "testing"

// The run-buffer pool keeps buffers of one page up to MaxPooledRunPages and
// nothing else; what it hands out is always exactly the run's length.
func TestRunBufRetentionBound(t *testing.T) {
	for capBytes, want := range map[int]bool{
		0:                                  false, // a zero-length run's buffer, or nil
		PageSize - 1:                       false,
		PageSize:                           true,
		MaxPooledRunPages * PageSize:       true,
		MaxPooledRunPages*PageSize + 1:     false,
		(MaxPooledRunPages + 1) * PageSize: false,
	} {
		if got := poolableRunBuf(capBytes); got != want {
			t.Errorf("poolableRunBuf(%d) = %v, want %v", capBytes, got, want)
		}
	}
	for _, n := range []int64{0, 1, 3, MaxPooledRunPages, MaxPooledRunPages + 1} {
		buf := getRunBuf(n)
		if int64(len(buf)) != n*PageSize {
			t.Errorf("getRunBuf(%d) is %d bytes long", n, len(buf))
		}
		if n > MaxPooledRunPages && cap(buf) != len(buf) {
			t.Errorf("getRunBuf(%d) over-allocated an unpoolable buffer: cap %d", n, cap(buf))
		}
		PutRunBuf(buf)
	}
	PutRunBuf(nil) // what a failed run read returned
}
