package simdisk

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// FileID identifies a page file on a Device.
type FileID uint32

// InvalidFile is the zero FileID; no valid file ever has it.
const InvalidFile FileID = 0

// Common device errors.
var (
	// ErrNoSuchFile is returned for operations on unknown or deleted files.
	ErrNoSuchFile = errors.New("simdisk: no such file")
	// ErrOutOfRange is returned when a page index is past end of file.
	ErrOutOfRange = errors.New("simdisk: page index out of range")
	// ErrBadPageSize is returned when a write buffer is not PageSize bytes.
	ErrBadPageSize = errors.New("simdisk: page buffer must be exactly PageSize bytes")
	// ErrDeviceClosed is returned for file operations on a closed device.
	ErrDeviceClosed = errors.New("simdisk: device closed")
)

// Stats aggregates device activity since the last Reset.
type Stats struct {
	PageReads    int64 // pages read from the platter (cache misses)
	PageWrites   int64 // pages written
	CacheHits    int64 // reads served by the buffer cache
	Seeks        int64 // non-sequential repositionings
	SeqPages     int64 // platter accesses that were sequential
	BytesRead    int64
	BytesWritten int64
	CanceledOps  int64 // device operations aborted by context cancellation
	// Always zero; kept only because the frozen benchmark/ledger.go names them.
	CoalescedReads int64
	CoalescedPages int64
	// QueuedDelay is the total arrival-gated queueing delay charged to
	// scoped operations: simulated time spent waiting behind earlier
	// operations on the same channel. It is attribution, not extra device
	// work — channel busy time and Clock() never include it. Zero on serial
	// single-stream workloads.
	QueuedDelay time.Duration
	// Fault-injection and retry ledger (see FaultPlan / RetryPolicy).
	// Faulted read attempts are rejected before any charge, so none of them
	// appear in PageReads or the clock. RetriedOps counts retry attempts
	// performed; RetryExhausted counts reads that still failed after their
	// last attempt or that the backoff budget cut off.
	TransientFaults int64
	PermanentFaults int64
	RetriedOps      int64
	RetryExhausted  int64
}

// ChannelStats snapshots one I/O channel's activity: the platter time it
// has been busy and its share of the seek/sequential split. Busy is the
// per-channel component of the simulated clock — on a multi-channel device
// Clock() reports the busiest channel plus the shared cache-hit time.
type ChannelStats struct {
	Channel  int
	Busy     time.Duration
	Seeks    int64
	SeqPages int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.PageReads += o.PageReads
	s.PageWrites += o.PageWrites
	s.CacheHits += o.CacheHits
	s.Seeks += o.Seeks
	s.SeqPages += o.SeqPages
	s.BytesRead += o.BytesRead
	s.BytesWritten += o.BytesWritten
	s.CanceledOps += o.CanceledOps
	s.QueuedDelay += o.QueuedDelay
	s.TransientFaults += o.TransientFaults
	s.PermanentFaults += o.PermanentFaults
	s.RetriedOps += o.RetriedOps
	s.RetryExhausted += o.RetryExhausted
}

// file is one page file stored entirely in memory. Its pages are guarded by
// a per-file RWMutex so parallel readers of the same file never serialize on
// device-wide state.
//
// A stored page keeps only what the page holds: its bytes up to the end of
// its last non-zero 64-byte block (usedLen). The zero tail is not stored, and
// a read restores it. A page's slot is its slice's capacity, so a rewrite
// that fits reuses it.
type file struct {
	mu      sync.RWMutex
	pages   [][]byte
	chunk   []byte // what is left of the allocation slots are carved from
	stored  int    // bytes carved into slots so far: what sizes the next chunk
	deleted bool
}

// Slots are carved from chunks that grow with the file — one allocation per
// chunk, not per page: a chunk is a 64th of the file's stored bytes, at least
// minChunk and at most maxChunk, rounded down to a power of two (sizes the
// allocator serves without rounding up; an odd number of pages above 32 KB
// costs another half page each). The unused end of the last chunk is under
// 1/64 of the stored bytes (or one page), and under 128 KB; a chunk's end too
// short for the next slot is left unused.
const (
	chunkGrowth = 64
	minChunk    = PageSize
	maxChunk    = 32 * PageSize
	blockSize   = 64 // the granule of usedLen; slots stay 64-byte aligned
)

// newPage returns a slot of n bytes (a multiple of blockSize), its content
// unspecified; the caller holds f.mu.
func (f *file) newPage(n int) []byte {
	if len(f.chunk) < n {
		size := min(max(f.stored/chunkGrowth, minChunk), maxChunk)
		f.chunk = make([]byte, 1<<(bits.Len(uint(size))-1))
	}
	f.stored += n
	page := f.chunk[:n:n]
	f.chunk = f.chunk[n:]
	return page
}

// usedLen is the length of page up to the end of its last blockSize-byte
// block that holds a non-zero byte: 0 for an all-zero page. It reads each
// block as eight 64-bit words, from the tail.
func usedLen(page []byte) int {
	for end := len(page); end >= blockSize; end -= blockSize {
		b := page[end-blockSize : end]
		if binary.LittleEndian.Uint64(b[0:])|binary.LittleEndian.Uint64(b[8:])|
			binary.LittleEndian.Uint64(b[16:])|binary.LittleEndian.Uint64(b[24:])|
			binary.LittleEndian.Uint64(b[32:])|binary.LittleEndian.Uint64(b[40:])|
			binary.LittleEndian.Uint64(b[48:])|binary.LittleEndian.Uint64(b[56:]) != 0 {
			return end
		}
	}
	return 0
}

// channel is one independent I/O channel of a Device: its own platter head
// (sequential-run detection) and its own busy-time accumulator. A file lives
// entirely on one channel (chosen by FileID), so sequential runs within a
// file are detected exactly as on a single-head disk, while misses on files
// of different channels neither interleave each other's runs nor serialize
// on a shared head mutex.
type channel struct {
	mu        sync.Mutex // guards the head position and free frontier below
	lastFile  FileID
	lastPage  int64
	lastValid bool
	// free is the channel's virtual availability frontier: the simulated
	// time (on the busy clock's epoch) at which the head finishes its last
	// accepted operation. An arriving scoped operation that finds free
	// ahead of its own arrival time is charged the difference as queueing
	// delay. free only ever meets or exceeds the busy sum — scope gaps
	// (a scope returning to a channel after working elsewhere) advance it
	// past busy, exactly like an idle head waiting for the next request.
	free int64

	busy     atomic.Int64 // platter nanoseconds charged to this channel
	seeks    atomic.Int64
	seqPages atomic.Int64
}

// Device is a simulated disk: a set of page files, a cost model, a buffer
// cache, one or more I/O channels and a simulated clock. All methods are
// safe for concurrent use, and the locking is fine-grained so parallel
// readers scale:
//
//   - the files map has its own RWMutex (file create/delete exclusive,
//     lookups shared);
//   - each file's pages have a per-file RWMutex (reads shared, writes and
//     appends exclusive per file);
//   - the buffer cache is a sharded LRU — cache hits contend only on one
//     shard's mutex, with per-shard hit counters aggregated on read;
//   - the clocks and the byte/page counters are atomics;
//   - each channel's head position (sequential-run detection) is its own
//     short mutex, serializing exactly the accesses one platter arm
//     serializes anyway: the cache misses of that channel's files.
//
// Simulated time on a multi-channel device is the critical path under
// perfect channel overlap: Clock() returns the busiest channel's platter
// time plus the shared cache-hit time. With one channel this is
// bit-for-bit the single-accumulator clock of the original model.
type Device struct {
	cost CostModel

	mu    sync.RWMutex // guards files map membership and id allocation
	files map[FileID]*file
	next  FileID

	channels []channel
	shared   atomic.Int64 // non-platter simulated nanoseconds (cache hits)
	cache    *shardedCache

	// device counters (Stats), all atomics; CacheHits lives in the cache's
	// per-shard counters, Seeks/SeqPages in the channels.
	pageReads    atomic.Int64
	pageWrites   atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	canceledOps  atomic.Int64

	// Failure injection (see faults.go): faults is the installed FaultPlan's
	// evaluation state, faultsArmed whether one is installed, letting the hot
	// path skip faultMu entirely when nothing is injected. retry holds the
	// page-read retry policy (see retry.go).
	faultMu         sync.Mutex
	faultsArmed     atomic.Bool
	faults          *faultState
	retry           atomic.Pointer[RetryPolicy]
	transientFaults atomic.Int64
	permanentFaults atomic.Int64
	retriedOps      atomic.Int64
	retryExhausted  atomic.Int64

	// queuedDelay is the Stats counter of arrival-gated queueing delay
	// charged to scopes (see qos.go).
	queuedDelay atomic.Int64

	// realTime holds the float64 bits of the real-time emulation scale
	// (0 = off). See SetRealTimeScale.
	realTime atomic.Uint64

	// closed is set by Close; every file-handle resolution checks it, so all
	// page I/O and file lifecycle operations on a closed device fail with
	// ErrDeviceClosed.
	closed atomic.Bool
}

// NewDeviceChannels creates a Device with the given cost model, buffer-cache
// capacity in pages (<= 0 disables caching entirely) and channels
// independent I/O channels (per-channel head position and busy time).
// channels <= 0 defaults to 1, which reproduces the original single-head
// cost model exactly.
func NewDeviceChannels(cost CostModel, cacheCapacity, channels int) *Device {
	if err := cost.Validate(); err != nil {
		panic(err)
	}
	if channels <= 0 {
		channels = 1
	}
	return &Device{
		cost:     cost,
		files:    make(map[FileID]*file),
		next:     1,
		channels: make([]channel, channels),
		cache:    newShardedCache(cacheCapacity),
	}
}

// channelOf returns the channel serving a file. The assignment is static —
// a multiplicative hash of the FileID — so a file's sequential runs always
// meet the same head, while structured allocation patterns (e.g. the
// raw/tree file pairs datasets allocate, which make every tree file id
// even) still spread across channels. With one channel this is always
// channel 0, the original single-head model.
func (d *Device) channelOf(id FileID) *channel {
	// Knuth multiplicative hash, mapped to the channel range via its high
	// bits (a plain modulus would only see the low bits, which structured
	// id patterns keep biased).
	h := uint32(id) * 2654435761
	return &d.channels[(uint64(h)*uint64(len(d.channels)))>>32]
}

// lookup resolves a file handle under the shared map lock.
func (d *Device) lookup(id FileID) (*file, error) {
	if d.closed.Load() {
		return nil, ErrDeviceClosed
	}
	d.mu.RLock()
	f, ok := d.files[id]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchFile, id)
	}
	return f, nil
}

// Close marks the device closed and releases the buffer cache. Subsequent
// file operations fail with ErrDeviceClosed; clock and stats inspection
// keep working so a session can be audited after shutdown. Idempotent.
func (d *Device) Close() error {
	d.closed.Store(true)
	d.cache.Clear()
	return nil
}

// CreateFileInGroup allocates a new empty page file and returns its handle,
// or InvalidFile on a closed device (every operation on InvalidFile then
// fails with ErrDeviceClosed via lookup). On a single device the affinity
// group is irrelevant; a DeviceArray uses it to co-locate related files.
func (d *Device) CreateFileInGroup(name, group string) FileID {
	if d.closed.Load() {
		return InvalidFile
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.next
	d.next++
	d.files[id] = &file{}
	return id
}

// DeleteFile removes a file, releasing its pages and cache entries. Deleting
// merge files under the space budget goes through here.
func (d *Device) DeleteFile(id FileID) error {
	if d.closed.Load() {
		return ErrDeviceClosed
	}
	d.mu.Lock()
	f, ok := d.files[id]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNoSuchFile, id)
	}
	delete(d.files, id)
	d.mu.Unlock()
	// Mark the struct deleted under its write lock: in-flight readers that
	// resolved the handle before the map removal either finish first (and
	// any cache entries they insert are purged below) or observe the flag
	// and fail — no page of a deleted file can linger in the cache.
	f.mu.Lock()
	f.deleted = true
	f.mu.Unlock()
	d.cache.RemoveFile(id)
	ch := d.channelOf(id)
	ch.mu.Lock()
	if ch.lastValid && ch.lastFile == id {
		ch.lastValid = false
	}
	ch.mu.Unlock()
	return nil
}

// NumPages returns the current length of the file in pages.
func (d *Device) NumPages(id FileID) (int64, error) {
	f, err := d.lookup(id)
	if err != nil {
		return 0, err
	}
	f.mu.RLock()
	n := int64(len(f.pages))
	f.mu.RUnlock()
	return n, nil
}

// readPage reads page idx of file id into buf (which must be PageSize
// bytes) without the real-time emulation: it returns the charged simulated
// duration so callers (ReadRunCtx) can aggregate sleeps. A cached page pays
// CacheHit; otherwise the access pays Transfer, plus Seek if it does not
// continue the previous platter access. Parallel reads of cached pages
// proceed concurrently. The context is checked before any charge, so a read
// that aborts here has cost nothing — ReadRunCtx relies on this to stop
// charging exactly at the page boundary where cancellation was observed.
func (d *Device) readPage(ctx context.Context, id FileID, idx int64, buf []byte) (time.Duration, error) {
	if err := d.checkCtx(ctx); err != nil {
		return 0, err
	}
	if len(buf) != PageSize {
		return 0, ErrBadPageSize
	}
	f, err := d.lookup(id)
	if err != nil {
		return 0, err
	}
	f.mu.RLock()
	if f.deleted {
		f.mu.RUnlock()
		return 0, fmt.Errorf("%w: %d", ErrNoSuchFile, id)
	}
	if idx < 0 || idx >= int64(len(f.pages)) {
		n := len(f.pages)
		f.mu.RUnlock()
		return 0, fmt.Errorf("%w: file %d page %d of %d", ErrOutOfRange, id, idx, n)
	}
	key := pageKey{id, idx}
	if d.faultsArmed.Load() {
		if ferr := d.takeFault(key); ferr != nil {
			f.mu.RUnlock()
			return 0, ferr
		}
	}
	var dt time.Duration
	s := ScopeFrom(ctx)
	if d.cache.Touch(key) {
		dt = d.cost.CacheHit
		d.shared.Add(int64(dt))
		s.noteShared(dt)
	} else {
		dt = d.chargePlatter(s, key)
		d.pageReads.Add(1)
		d.bytesRead.Add(PageSize)
	}
	// The stored prefix, then the zero tail it dropped: buf may be a pooled
	// run buffer holding another page's bytes.
	n := copy(buf, f.pages[idx])
	f.mu.RUnlock()
	clear(buf[n:])
	return dt, nil
}

// WritePageCtx overwrites an existing page in place (partition refinement
// reuses the pages the old partition occupied). The write pays platter cost
// and refreshes the cache (write-through). The context is checked before
// any charge or mutation (an abort there has cost and changed nothing) and
// the platter charge is attributed to the context's OpScope. Once the page
// is written the operation is charged and durable — only the real-time
// emulation sleep can still be cut short, returning the cancellation error
// with the write already applied.
func (d *Device) WritePageCtx(ctx context.Context, id FileID, idx int64, data []byte) error {
	ctx = orBackground(ctx)
	if err := d.checkCtx(ctx); err != nil {
		return err
	}
	if len(data) != PageSize {
		return ErrBadPageSize
	}
	s := ScopeFrom(ctx)
	f, err := d.lookup(id)
	if err != nil {
		return err
	}
	used := usedLen(data)
	f.mu.Lock()
	if f.deleted {
		f.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNoSuchFile, id)
	}
	if idx < 0 || idx >= int64(len(f.pages)) {
		n := len(f.pages)
		f.mu.Unlock()
		return fmt.Errorf("%w: file %d page %d of %d", ErrOutOfRange, id, idx, n)
	}
	key := pageKey{id, idx}
	dt := d.chargePlatter(s, key)
	d.pageWrites.Add(1)
	d.bytesWritten.Add(PageSize)
	// In place when the page still fits its slot, else in a new one: stored
	// pages are only ever copied out, under the read lock.
	slot := f.pages[idx]
	if used > cap(slot) {
		slot = f.newPage(used)
	}
	slot = slot[:used]
	copy(slot, data)
	f.pages[idx] = slot
	// Insert under f.mu so DeleteFile's purge (which takes f.mu first)
	// cannot interleave and leave a dead key cached.
	d.cache.Insert(key)
	f.mu.Unlock()
	return d.emulateCtx(ctx, dt)
}

// AppendPageCtx appends data as a new page at the end of the file and
// returns its index. Appends to the file most recently touched at its tail
// are sequential. Cancellation and attribution follow the same contract as
// WritePageCtx: abort before the charge costs nothing; once the page is
// appended it is charged and durable.
func (d *Device) AppendPageCtx(ctx context.Context, id FileID, data []byte) (int64, error) {
	ctx = orBackground(ctx)
	if err := d.checkCtx(ctx); err != nil {
		return 0, err
	}
	if len(data) != PageSize {
		return 0, ErrBadPageSize
	}
	s := ScopeFrom(ctx)
	f, err := d.lookup(id)
	if err != nil {
		return 0, err
	}
	used := usedLen(data)
	f.mu.Lock()
	if f.deleted {
		f.mu.Unlock()
		return 0, fmt.Errorf("%w: %d", ErrNoSuchFile, id)
	}
	idx := int64(len(f.pages))
	key := pageKey{id, idx}
	dt := d.chargePlatter(s, key)
	d.pageWrites.Add(1)
	d.bytesWritten.Add(PageSize)
	page := f.newPage(used)
	copy(page, data)
	f.pages = append(f.pages, page)
	d.cache.Insert(key) // under f.mu; see WritePageCtx
	f.mu.Unlock()
	if err := d.emulateCtx(ctx, dt); err != nil {
		return idx, err
	}
	return idx, nil
}

// chargePlatter advances the file's channel clock for one platter access to
// key, paying a seek unless the access continues that channel's previous
// one. The access is arrival-aware: under the channel mutex it computes the
// operation's arrival time (the scope's virtual timeline position; for the
// scope's first access, or with no scope, exactly the channel's free
// frontier), starts it no earlier than the frontier, and charges the scope
// the service time plus any arrival-gated queueing delay. Channel busy time
// accumulates pure service time, so Clock() and conservation (scope charges
// sum to busy) are independent of interleaving. It returns the duration the
// operation should sleep under real-time emulation: service plus charged
// delay.
func (d *Device) chargePlatter(s *OpScope, key pageKey) time.Duration {
	ch := d.channelOf(key.file)
	ch.mu.Lock()
	sequential := ch.lastValid && ch.lastFile == key.file && key.page == ch.lastPage+1
	ch.lastFile, ch.lastPage, ch.lastValid = key.file, key.page, true
	svc := d.cost.Transfer
	if !sequential {
		svc += d.cost.Seek
	}
	var delay int64
	if s == nil {
		// Unscoped access: arrives exactly when the head frees up.
		ch.free += int64(svc)
	} else {
		arrival := s.now.Load()
		if arrival < 0 {
			arrival = ch.free // first access positions the scope's timeline
		}
		start := max(arrival, ch.free)
		ch.free = start + int64(svc)
		delay = start - arrival
		s.now.Store(ch.free)
	}
	ch.mu.Unlock()
	if sequential {
		ch.seqPages.Add(1)
	} else {
		ch.seeks.Add(1)
	}
	ch.busy.Add(int64(svc))
	if s != nil {
		s.ops.Add(1)
		s.charged.Add(int64(svc))
		if delay > 0 {
			s.queued.Add(delay)
			d.queuedDelay.Add(delay)
		}
	}
	return svc + time.Duration(delay)
}

// Clock returns the simulated time elapsed since creation or the last
// ResetClock: the busiest channel's platter time plus the shared
// cache-hit time. On a single-channel device this is exactly the sum of
// every charge; with C > 1 it is the critical path under perfect channel
// overlap — the time the device needs when all channels work in parallel.
// Wall-clock behaviour under real-time emulation stays honest either way:
// every operation still sleeps its own full latency, so a serial caller
// never observes the overlap it does not exploit.
func (d *Device) Clock() time.Duration {
	var maxBusy int64
	for i := range d.channels {
		if b := d.channels[i].busy.Load(); b > maxBusy {
			maxBusy = b
		}
	}
	return time.Duration(d.shared.Load() + maxBusy)
}

// ResetClock zeroes the simulated clock — the shared accumulator and every
// channel's busy time (stats are unaffected).
func (d *Device) ResetClock() {
	d.shared.Store(0)
	for i := range d.channels {
		ch := &d.channels[i]
		ch.busy.Store(0)
		ch.mu.Lock()
		ch.free = 0 // same epoch as busy; new scopes re-position from zero
		ch.mu.Unlock()
	}
}

// SetRealTimeScale turns on real-time emulation: every charged simulated
// duration additionally sleeps scale times that duration in wall-clock time
// (outside all locks), so concurrent queries genuinely overlap their
// simulated I/O waits the way they would overlap device latency on real
// hardware. scale <= 0 (the default) disables emulation. Sub-microsecond
// scaled costs (cache hits) never sleep.
func (d *Device) SetRealTimeScale(scale float64) {
	if scale < 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		scale = 0
	}
	d.realTime.Store(math.Float64bits(scale))
}

// emulateCtx sleeps the scaled wall-clock equivalent of a charged simulated
// duration when real-time emulation is on. The wait is abortable: when ctx
// is canceled mid-sleep it ends immediately and the cancellation error is
// returned, so a real-time emulated device never holds an abandoned query
// hostage for the remainder of its simulated latency. The simulated clock
// was charged before the sleep either way — the I/O itself happened; only
// the wall-clock wait is cut short. Called with no locks held.
func (d *Device) emulateCtx(ctx context.Context, dt time.Duration) error {
	bits := d.realTime.Load()
	if bits == 0 || dt <= 0 {
		return nil
	}
	ns := float64(dt) * math.Float64frombits(bits)
	if ns < 1000 { // below timer resolution; cache hits are meant to be free
		return nil
	}
	err := sleepCtx(ctx, time.Duration(ns))
	if err != nil {
		d.canceledOps.Add(1)
	}
	return err
}

// Stats returns a snapshot of the device counters, aggregating the cache's
// per-shard hit counters and the channels' seek counters. Under concurrent
// load the snapshot is a consistent sum of per-counter values, not an
// instantaneous cross-counter cut.
func (d *Device) Stats() Stats {
	s := Stats{
		PageReads:       d.pageReads.Load(),
		PageWrites:      d.pageWrites.Load(),
		CacheHits:       d.cache.Hits(),
		BytesRead:       d.bytesRead.Load(),
		BytesWritten:    d.bytesWritten.Load(),
		CanceledOps:     d.canceledOps.Load(),
		QueuedDelay:     time.Duration(d.queuedDelay.Load()),
		TransientFaults: d.transientFaults.Load(),
		PermanentFaults: d.permanentFaults.Load(),
		RetriedOps:      d.retriedOps.Load(),
		RetryExhausted:  d.retryExhausted.Load(),
	}
	for i := range d.channels {
		s.Seeks += d.channels[i].seeks.Load()
		s.SeqPages += d.channels[i].seqPages.Load()
	}
	return s
}

// ResetStats zeroes the device counters, including every channel's.
func (d *Device) ResetStats() {
	d.pageReads.Store(0)
	d.pageWrites.Store(0)
	d.bytesRead.Store(0)
	d.bytesWritten.Store(0)
	d.canceledOps.Store(0)
	d.queuedDelay.Store(0)
	d.transientFaults.Store(0)
	d.permanentFaults.Store(0)
	d.retriedOps.Store(0)
	d.retryExhausted.Store(0)
	for i := range d.channels {
		d.channels[i].seeks.Store(0)
		d.channels[i].seqPages.Store(0)
	}
	d.cache.ResetHits()
}

// DropCaches empties the buffer cache and forgets every channel's head
// position, exactly like the paper's methodology of overwriting OS caches
// before each query: the next read on any channel pays a seek.
func (d *Device) DropCaches() {
	d.cache.Clear()
	for i := range d.channels {
		ch := &d.channels[i]
		ch.mu.Lock()
		ch.lastValid = false
		ch.mu.Unlock()
	}
}

// ChannelStats snapshots every channel's busy time and seek counters.
func (d *Device) ChannelStats() []ChannelStats {
	out := make([]ChannelStats, len(d.channels))
	for i := range d.channels {
		ch := &d.channels[i]
		out[i] = ChannelStats{
			Channel:  i,
			Busy:     time.Duration(ch.busy.Load()),
			Seeks:    ch.seeks.Load(),
			SeqPages: ch.seqPages.Load(),
		}
	}
	return out
}

// DeviceChannelStats implements Control: per-member, per-channel counters.
func (d *Device) DeviceChannelStats() [][]ChannelStats {
	return [][]ChannelStats{d.ChannelStats()}
}
