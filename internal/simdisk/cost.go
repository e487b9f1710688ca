// Package simdisk simulates the disk subsystem the paper's evaluation runs
// on: a spinning SAS disk with 4 KB pages, an OS page cache that is dropped
// before every query, and a cost model in which random page accesses pay a
// seek while sequential runs pay only transfer time.
//
// The paper measures wall-clock time on real hardware (2x 300 GB SAS disks,
// caches cleared before each query). We cannot assume that hardware, so the
// device charges an explicit, deterministic cost model and exposes the
// simulated clock as the measured quantity. This preserves the property the
// evaluation depends on — sequential I/O is far cheaper than random I/O, and
// full-dataset index builds are expensive — while making every experiment
// reproducible bit-for-bit.
package simdisk

import (
	"fmt"
	"time"
)

// PageSize is the disk page size in bytes, matching the paper's 4 KB setup.
const PageSize = 4096

// CostModel holds the timing parameters of the simulated disk.
//
// The defaults approximate the paper's 10k-RPM SAS disks: an average
// positioning cost (seek + rotational latency) of 8 ms and a sustained
// sequential transfer rate of 160 MB/s (25 us per 4 KB page). A cache hit
// costs CacheHitTime (DRAM copy), effectively negligible.
type CostModel struct {
	// Seek is charged whenever an access is not sequential with respect to
	// the immediately preceding access on the device.
	Seek time.Duration
	// Transfer is charged per page moved to or from the platter.
	Transfer time.Duration
	// CacheHit is charged when a read is served from the buffer cache.
	CacheHit time.Duration
}

// DefaultCostModel returns the SAS-disk parameters used by all experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		Seek:     8 * time.Millisecond,
		Transfer: 25 * time.Microsecond,
		CacheHit: 200 * time.Nanosecond,
	}
}

// SSDCostModel returns parameters approximating a SATA SSD; useful for
// sensitivity runs (the paper's conclusions assume spinning disks).
func SSDCostModel() CostModel {
	return CostModel{
		Seek:     80 * time.Microsecond,
		Transfer: 8 * time.Microsecond,
		CacheHit: 200 * time.Nanosecond,
	}
}

// ReducedScaleCostModel returns the cost model the experiment harness uses
// at laptop scale. The paper runs on ~50 GB of data (12.5M pages); the
// harness runs on ~1/100 of that. Index builds are transfer-bound (they
// stream all data) while queries are seek-bound (a handful of random
// accesses), so shrinking the data by 100x shrinks build cost 100x but
// leaves per-query cost nearly unchanged — which would invert the paper's
// build-vs-query trade-off (its central subject). Scaling the seek time
// down by the same factor the data shrank (8 ms -> 80 us... too extreme;
// empirically 0.5 ms preserves the paper's ratios: Grid's build lands
// mid-workload for Odyssey, and the sophisticated indexes' builds dwarf
// it) restores the relative geometry of Figures 4 and 5. README's
// "Reproduction scale" documents the calibration; odyssey-bench's
// -seek-us 8000 runs the unscaled SAS model.
func ReducedScaleCostModel() CostModel {
	return CostModel{
		Seek:     500 * time.Microsecond,
		Transfer: 25 * time.Microsecond,
		CacheHit: 200 * time.Nanosecond,
	}
}

// Validate reports an error if any component is negative.
func (c CostModel) Validate() error {
	if c.Seek < 0 || c.Transfer < 0 || c.CacheHit < 0 {
		return fmt.Errorf("simdisk: negative cost in model %+v", c)
	}
	return nil
}
