package simdisk

import (
	"context"
	"time"
)

// Storage is the data path the storage stack (pagefile, rawfile, octree,
// the engines) works against: a single *Device, a *DeviceArray placing
// whole files on several devices, or a wrapper embedding either (a tracer, a
// future file-backed store). Everything above this interface is
// placement-oblivious — the same engine code runs on one single-head SAS
// disk or on an array of multi-channel devices. Thirteen methods, one
// flavour of I/O: every page operation takes a context.
type Storage interface {
	// File lifecycle. CreateFileInGroup carries an affinity hint ("" when
	// the creator has none): a DeviceArray hands it to its placement policy
	// so a dataset's raw and tree files co-locate.
	CreateFileInGroup(name, group string) FileID
	DeleteFile(id FileID) error
	NumPages(id FileID) (int64, error)

	// Page I/O. The context carries cancellation (checked before every
	// charge, down to the page boundary inside a run) and attribution: the
	// platter charge lands on the context's OpScope (exact per-query
	// accounting on any topology). A nil context is accepted and treated as
	// context.Background().
	//
	// Buffer ownership: an implementation must not retain data past
	// WritePageCtx / AppendPageCtx (callers reuse the page for the next
	// write), and the result of ReadRunCtx belongs to the caller, who may
	// recycle it with PutRunBuf.
	ReadPageCtx(ctx context.Context, id FileID, idx int64, buf []byte) error
	ReadRunCtx(ctx context.Context, id FileID, start, n int64) ([]byte, error)
	WritePageCtx(ctx context.Context, id FileID, idx int64, data []byte) error
	AppendPageCtx(ctx context.Context, id FileID, data []byte) (int64, error)

	// Simulated time, counters and cache control.
	Clock() time.Duration
	ResetClock()
	Stats() Stats
	ResetStats()
	DropCaches()

	// Close marks the storage closed: subsequent file operations fail with
	// ErrDeviceClosed, and the buffer cache is released. The owner (the
	// Explorer) drains background layout maintenance before closing, so a
	// closed device never has writers in flight.
	Close() error
}

// Control is the handle NewStorage returns to the storage's owner: the data
// path plus the control plane only the owner (the Explorer) drives —
// wall-clock emulation, the fault plan and retry policy of the robustness
// harness, and the per-member reports. The layers below the owner take the
// Storage it embeds and never name Control.
type Control interface {
	Storage

	// SetRealTimeScale makes every charged simulated duration additionally
	// sleep scale times that duration in wall-clock time (0 = off).
	SetRealTimeScale(scale float64)

	// Fault injection and retry (see faults.go / retry.go): SetFaultPlan
	// installs a seeded, deterministic fault plan (a DeviceArray
	// decorrelates members with per-member seed offsets); SetRetryPolicy
	// bounds the page-read retry loop that absorbs transient faults,
	// wall-clock only.
	SetFaultPlan(plan FaultPlan)
	SetRetryPolicy(p RetryPolicy)

	// Per-member, per-channel counters, for serving-layer reports.
	DeviceChannelStats() [][]ChannelStats
}

// NewStorage builds the storage a topology describes: a (possibly
// multi-channel) single Device when devices <= 1, otherwise a DeviceArray
// of devices members with channels channels each under the given placement
// policy (nil places each file by what it holds). This is the one place the
// topology defaulting lives; the Explorer and the bench harness both build
// through it.
func NewStorage(cost CostModel, cachePages, devices, channels int, policy PlacementPolicy) Control {
	if devices <= 1 {
		return NewDeviceChannels(cost, cachePages, channels)
	}
	return NewDeviceArray(cost, cachePages, devices, channels, policy)
}

// Clocker is the clock-reading capability PhaseClock needs; every Storage
// provides it.
type Clocker interface {
	Clock() time.Duration
}

var (
	_ Control = (*Device)(nil)
	_ Control = (*DeviceArray)(nil)
)
