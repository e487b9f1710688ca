package simdisk

import (
	"context"
	"sync"
)

// PageStripe returns the placement policy that stripes every file
// page-granularly across ALL members of a DeviceArray instead of placing
// whole files on single members: pages are grouped into chunks of
// chunkPages consecutive pages and the chunks deal round-robin across the
// members, so one file's long sequential run fans out over every spindle
// and a run read proceeds on all of them concurrently. The trade is the
// classic RAID-0 one — aggregate bandwidth for a single hot file versus
// the per-member sequentiality (and seek avoidance) whole-file affinity
// preserves. chunkPages <= 0 defaults to 8.
//
// The policy is detected by the DeviceArray at construction: with it
// installed, every created file is striped (there is no per-file opt-in)
// and FileIDs come from a reserved namespace the array routes through its
// stripe table instead of the arithmetic member encoding.
func PageStripe(chunkPages int64) PlacementPolicy {
	if chunkPages <= 0 {
		chunkPages = 8
	}
	return pageStripe{chunk: chunkPages}
}

type pageStripe struct{ chunk int64 }

// Place is unused under striping — a striped file lives on every member —
// but must exist to satisfy PlacementPolicy.
func (pageStripe) Place(name, group string, devices int) int { return 0 }

func (pageStripe) String() string { return "pagestripe" }

// ChunkPages is the detection hook NewDeviceArray looks for.
func (p pageStripe) ChunkPages() int64 { return p.chunk }

// stripingPolicy marks a placement policy as page-striping; the chunk size
// is in pages.
type stripingPolicy interface{ ChunkPages() int64 }

// stripeTag is the high bit reserved for striped FileIDs. Member-encoded
// ids are allocated densely from zero (local*D + member), so the two
// namespaces cannot collide below a billion files — and under a striping
// policy every file is striped anyway, so the member encoding is never
// handed out at all.
const stripeTag FileID = 1 << 30

// stripedFile is one page-striped file: a member-local backing file per
// member, plus the append lock that keeps the logical end-of-file
// consistent (the logical length is the sum of the local lengths, so
// concurrent appends must serialize here, not per member).
type stripedFile struct {
	name   string
	locals []FileID // member-local backing file ids, index = member
	mu     sync.Mutex
}

// striped returns the stripe-table entry for id, or ok=false when id is
// not a striped file (no tag, no striping policy, or deleted).
func (a *DeviceArray) striped(id FileID) (*stripedFile, bool) {
	if id&stripeTag == 0 || a.chunk <= 0 {
		return nil, false
	}
	a.stripeMu.RLock()
	f := a.stripes[id]
	a.stripeMu.RUnlock()
	return f, f != nil
}

// stripeLoc maps a global page index to (member, member-local page index):
// chunk s = p/chunk lands on member s%D at local chunk s/D. Consecutive
// chunks of one member are consecutive locally, so any contiguous global
// range is at most one contiguous local range per member.
func (a *DeviceArray) stripeLoc(p int64) (int, int64) {
	c := a.chunk
	d := int64(len(a.members))
	s := p / c
	return int(s % d), (s/d)*c + p%c
}

// createStriped creates one backing file per member and registers the
// striped id. On a closed array it returns InvalidFile like
// CreateFileInGroup.
func (a *DeviceArray) createStriped(name string) FileID {
	f := &stripedFile{name: name, locals: make([]FileID, len(a.members))}
	for i, m := range a.members {
		local := m.CreateFileInGroup(name, "")
		if local == InvalidFile {
			return InvalidFile // closed; members close together
		}
		f.locals[i] = local
	}
	a.stripeMu.Lock()
	a.stripeSeq++
	id := stripeTag | FileID(a.stripeSeq)
	a.stripes[id] = f
	a.stripeMu.Unlock()
	return id
}

func (a *DeviceArray) deleteStriped(id FileID, f *stripedFile) error {
	a.stripeMu.Lock()
	delete(a.stripes, id)
	a.stripeMu.Unlock()
	var first error
	for i, m := range a.members {
		if err := m.DeleteFile(f.locals[i]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stripedNumPages is the logical file length: the global-to-local mapping
// is a bijection that fills every member's backing file as a prefix, so
// the logical length is exactly the sum of the local lengths.
func (a *DeviceArray) stripedNumPages(f *stripedFile) (int64, error) {
	var total int64
	for i, m := range a.members {
		n, err := m.NumPages(f.locals[i])
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// stripedAppend appends one page at the logical end of file: the append
// lock pins the logical length, the chunk mapping names the member whose
// backing file the page extends, and the returned index is global.
func (a *DeviceArray) stripedAppend(ctx context.Context, f *stripedFile, data []byte) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	end, err := a.stripedNumPages(f)
	if err != nil {
		return 0, err
	}
	m, _ := a.stripeLoc(end)
	if _, err := a.members[m].AppendPageCtx(ctx, f.locals[m], data); err != nil {
		return 0, err
	}
	return end, nil
}

// stripedReadRun reads a contiguous global page range by issuing each
// member's (single, contiguous) share of it concurrently and reassembling
// the chunks into global order — the bandwidth aggregation striping buys.
// The result is pooled like Device.ReadRunCtx's.
func (a *DeviceArray) stripedReadRun(ctx context.Context, f *stripedFile, start, n int64) ([]byte, error) {
	if n <= 0 {
		// Preserve the single-device contract for degenerate runs
		// (negative lengths error, zero-length runs are free no-ops).
		return a.members[0].ReadRunCtx(ctx, f.locals[0], 0, n)
	}
	c := a.chunk
	d := int64(len(a.members))
	end := start + n
	type sub struct {
		lo, hi int64 // member-local page range, hi exclusive
		active bool
	}
	subs := make([]sub, d)
	for s := start / c; s*c < end; s++ {
		gLo, gHi := s*c, (s+1)*c
		if gLo < start {
			gLo = start
		}
		if gHi > end {
			gHi = end
		}
		m := int(s % d)
		lLo := (s/d)*c + (gLo - s*c)
		if !subs[m].active {
			subs[m] = sub{lo: lLo, hi: lLo + (gHi - gLo), active: true}
		} else {
			subs[m].hi = lLo + (gHi - gLo)
		}
	}
	bufs := make([][]byte, d)
	errs := make([]error, d)
	var wg sync.WaitGroup
	for m := range subs {
		if !subs[m].active {
			continue
		}
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			bufs[m], errs[m] = a.members[m].ReadRunCtx(ctx, f.locals[m], subs[m].lo, subs[m].hi-subs[m].lo)
		}(m)
	}
	wg.Wait()
	// The member chunks are ours: they go back to the pool once reassembled,
	// and on an error every chunk that did arrive does.
	defer func() {
		for _, b := range bufs {
			PutRunBuf(b) // nil (inactive or failed member) is a no-op
		}
	}()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := getRunBuf(n)
	for s := start / c; s*c < end; s++ {
		gLo, gHi := s*c, (s+1)*c
		if gLo < start {
			gLo = start
		}
		if gHi > end {
			gHi = end
		}
		m := int(s % d)
		lLo := (s/d)*c + (gLo - s*c)
		off := (lLo - subs[m].lo) * PageSize
		copy(out[(gLo-start)*PageSize:(gHi-start)*PageSize], bufs[m][off:off+(gHi-gLo)*PageSize])
	}
	return out, nil
}
