package simdisk

import (
	"context"
	"hash/fnv"
	"sync/atomic"
	"time"
)

// PlacementPolicy decides which member device of a DeviceArray a new file
// is created on. group is the caller's affinity hint ("" when none was
// given). Implementations must be safe for concurrent use. The array's one
// policy is placeByContent; the interface is the seam tests substitute
// reference policies through.
type PlacementPolicy interface {
	// Place returns the member index in [0, devices) for a new file.
	Place(name, group string, devices int) int
}

// placeByContent places a file by what it holds. A file created with a group
// is one dataset's raw or tree file ("ds<N>"): it lands on its group's member
// by hash, so the files a cold query reads and refines together share a
// spindle while different datasets spread. A file with no group is a merge
// file, which holds several datasets (or a baseline engine's index): it is
// dealt to the next member in turn, so the files a converged layout is read
// from spread evenly. Only group-less files advance the deal. The recording
// this rule won is in ROADMAP ("Placement").
type placeByContent struct{ next atomic.Uint32 }

func (p *placeByContent) Place(name, group string, devices int) int {
	if group == "" {
		return int((p.next.Add(1) - 1) % uint32(devices))
	}
	h := fnv.New32a()
	h.Write([]byte(group))
	return int(h.Sum32() % uint32(devices))
}

// DeviceArray places whole files on D member Devices behind the same
// Storage interface a single Device offers — the paper's evaluation runs on
// 2x 300 GB SAS disks, and this is that second spindle (and more). Each
// member keeps its own channels, cache shard-set, clock and counters; the
// array routes every file operation to the member its placement policy
// chose at creation time, and does nothing else: every Storage method is
// decode plus one member call, or a loop over the members.
//
// FileIDs are bijectively encoded as memberLocalID*D + memberIndex, so
// routing is arithmetic (no shared map on the hot path) and the zero
// InvalidFile never collides with a live file.
//
// Simulated time on the array is the critical path across members: Clock()
// returns the maximum member clock, each member clock itself being that
// device's busiest channel plus its shared time. Stats() is the sum over
// members — placement moves I/O between spindles, it never changes how much
// I/O happens.
type DeviceArray struct {
	members []*Device
	policy  PlacementPolicy
}

// NewDeviceArray creates an array of devices member Devices with channels
// I/O channels each, all sharing one cost model. The cache capacity is
// split evenly across members so the array's total buffer cache matches a
// single device of the same capacity. policy nil places by content (see
// placeByContent).
func NewDeviceArray(cost CostModel, cacheCapacity, devices, channels int, policy PlacementPolicy) *DeviceArray {
	if devices <= 0 {
		devices = 1
	}
	if policy == nil {
		policy = &placeByContent{}
	}
	perMember := cacheCapacity / devices
	if cacheCapacity > 0 && perMember == 0 {
		perMember = 1
	}
	members := make([]*Device, devices)
	for i := range members {
		members[i] = NewDeviceChannels(cost, perMember, channels)
	}
	return &DeviceArray{members: members, policy: policy}
}

// encode maps (member, member-local id) to an array-global FileID.
func (a *DeviceArray) encode(member int, local FileID) FileID {
	return FileID(uint32(local)*uint32(len(a.members)) + uint32(member))
}

// decode splits an array-global FileID back into member and local id. Any
// id (including InvalidFile) decodes; unknown locals fail in the member
// with ErrNoSuchFile.
func (a *DeviceArray) decode(id FileID) (*Device, FileID) {
	d := uint32(len(a.members))
	return a.members[uint32(id)%d], FileID(uint32(id) / d)
}

// CreateFileInGroup places a new file via the placement policy with an
// affinity group hint. On a closed array it returns InvalidFile (members
// are closed together, so checking one suffices).
func (a *DeviceArray) CreateFileInGroup(name, group string) FileID {
	if a.members[0].closed.Load() {
		return InvalidFile
	}
	m := a.policy.Place(name, group, len(a.members))
	local := a.members[m].CreateFileInGroup(name, group)
	return a.encode(m, local)
}

// DeleteFile removes a file from its member device.
func (a *DeviceArray) DeleteFile(id FileID) error {
	dev, local := a.decode(id)
	return dev.DeleteFile(local)
}

// NumPages returns the file length in pages.
func (a *DeviceArray) NumPages(id FileID) (int64, error) {
	dev, local := a.decode(id)
	return dev.NumPages(local)
}

// ReadPageCtx reads one page on the file's member device.
func (a *DeviceArray) ReadPageCtx(ctx context.Context, id FileID, idx int64, buf []byte) error {
	dev, local := a.decode(id)
	return dev.ReadPageCtx(ctx, local, idx, buf)
}

// WritePageCtx overwrites one page on the file's member device.
func (a *DeviceArray) WritePageCtx(ctx context.Context, id FileID, idx int64, data []byte) error {
	dev, local := a.decode(id)
	return dev.WritePageCtx(ctx, local, idx, data)
}

// AppendPageCtx appends one page on the file's member device.
func (a *DeviceArray) AppendPageCtx(ctx context.Context, id FileID, data []byte) (int64, error) {
	dev, local := a.decode(id)
	return dev.AppendPageCtx(ctx, local, data)
}

// ReadRunCtx reads n consecutive pages on the file's member device.
func (a *DeviceArray) ReadRunCtx(ctx context.Context, id FileID, start, n int64) ([]byte, error) {
	dev, local := a.decode(id)
	return dev.ReadRunCtx(ctx, local, start, n)
}

// Clock returns the critical-path simulated time: the maximum member clock.
func (a *DeviceArray) Clock() time.Duration {
	var max time.Duration
	for _, m := range a.members {
		if c := m.Clock(); c > max {
			max = c
		}
	}
	return max
}

// ResetClock zeroes every member's clock.
func (a *DeviceArray) ResetClock() {
	for _, m := range a.members {
		m.ResetClock()
	}
}

// SetRealTimeScale fans the emulation scale out to every member.
func (a *DeviceArray) SetRealTimeScale(scale float64) {
	for _, m := range a.members {
		m.SetRealTimeScale(scale)
	}
}

// Stats sums the member counters: total I/O is invariant under placement.
func (a *DeviceArray) Stats() Stats {
	var s Stats
	for _, m := range a.members {
		s.Add(m.Stats())
	}
	return s
}

// ResetStats zeroes every member's counters.
func (a *DeviceArray) ResetStats() {
	for _, m := range a.members {
		m.ResetStats()
	}
}

// DropCaches fans out to every member device, emptying every buffer cache
// and forgetting every channel's head position on every member.
func (a *DeviceArray) DropCaches() {
	for _, m := range a.members {
		m.DropCaches()
	}
}

// DeviceChannelStats snapshots each member's per-channel counters.
func (a *DeviceArray) DeviceChannelStats() [][]ChannelStats {
	out := make([][]ChannelStats, len(a.members))
	for i, m := range a.members {
		out[i] = m.ChannelStats()
	}
	return out
}

// Close closes every member device; the first error (if any) is returned
// after all members have been closed. Idempotent.
func (a *DeviceArray) Close() error {
	var first error
	for _, m := range a.members {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
