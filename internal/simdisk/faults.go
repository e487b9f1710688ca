package simdisk

import (
	"errors"
	"fmt"
)

// Fault taxonomy. Every injected read failure the device produces wraps one
// of these sentinels, so the layers above can decide policy with errors.Is
// alone: transient faults are worth retrying (a re-read may succeed),
// permanent faults are not (the page is gone for good; the engine rebuilds a
// derived page from its raw file, and only a lost raw page fails the read).
// Both compose with the cancellation taxonomy — a retry loop aborted by its
// context returns an error matching ErrCanceled and the fault it was
// retrying.
var (
	// ErrTransient marks a fault that may clear on re-read: a timeout, a
	// recoverable ECC hiccup, a probabilistic failure of the plan's rate.
	ErrTransient = errors.New("simdisk: transient read fault")
	// ErrPermanent marks an unrecoverable fault: the page is bad and every
	// future read of it fails the same way. Callers must not retry; what
	// the page held is rebuilt elsewhere or lost.
	ErrPermanent = errors.New("simdisk: permanent read fault")
)

// FaultKind classifies an injected fault.
type FaultKind int

const (
	// FaultTransient faults clear on retry (subject to the pattern's Count).
	FaultTransient FaultKind = iota
	// FaultPermanent faults are sticky: once a page has failed permanently it
	// fails on every subsequent read, until a new plan is installed.
	FaultPermanent
)

func (k FaultKind) String() string {
	switch k {
	case FaultTransient:
		return "transient"
	case FaultPermanent:
		return "permanent"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// faultErr is the error shape every injected fault surfaces: it matches the
// kind's sentinel via Is and unwraps to the injector's custom cause (if one
// was given), mirroring cancelErr's idiom so errors.Is works on both the
// taxonomy sentinel and the original error.
type faultErr struct {
	kind  FaultKind
	file  FileID
	page  int64
	cause error
}

func (e *faultErr) Error() string {
	msg := fmt.Sprintf("simdisk: %s read fault: file %d page %d", e.kind, e.file, e.page)
	if e.cause != nil {
		msg += ": " + e.cause.Error()
	}
	return msg
}

func (e *faultErr) Is(target error) bool {
	if e.kind == FaultPermanent {
		return target == ErrPermanent
	}
	return target == ErrTransient
}

func (e *faultErr) Unwrap() error { return e.cause }

// PageFault is one explicit entry of a FaultPlan: fault reads of a page (or
// any page of a file) a bounded or unbounded number of times.
type PageFault struct {
	File FileID
	// Page selects one page, or every page of File when negative.
	Page int64
	Kind FaultKind
	// Count bounds how many reads this entry faults; 0 means every read
	// forever. Permanent entries behave as forever regardless of Count.
	Count int
	// Err optionally carries a custom cause the surfaced fault unwraps to.
	Err error
}

// FaultPlan is a seeded, deterministic description of how a device
// misbehaves. Explicit Pages patterns are checked first; then sticky
// permanent pages; then the probabilistic rates, evaluated from a hash of
// (Seed, file, page, per-page read ordinal) so the fault sequence is a pure
// function of the seed and each page's read history — identical across runs
// regardless of goroutine interleaving. The zero FaultPlan injects nothing;
// install it to clear a previous plan.
type FaultPlan struct {
	Seed int64

	// TransientRate is the probability in [0, 1] that a read returns a
	// transient fault. PermanentRate is the probability that a read discovers
	// the page has gone permanently bad (the page then fails forever).
	TransientRate float64
	PermanentRate float64

	// Pages lists explicit per-file/page fault patterns, checked before any
	// probabilistic evaluation.
	Pages []PageFault
}

// active reports whether the plan can ever inject anything.
func (p *FaultPlan) active() bool {
	return p.TransientRate > 0 || p.PermanentRate > 0 || len(p.Pages) > 0
}

// faultState is the device-side evaluation state of a FaultPlan, guarded by
// Device.faultMu.
type faultState struct {
	plan FaultPlan
	// patLeft tracks the remaining Count of each Pages entry (-1 = forever).
	patLeft []int
	// occ counts platter-path reads per page: the ordinal hashed into every
	// probabilistic decision, making the per-page fault sequence replayable.
	occ map[pageKey]uint64
	// perm pins pages the probabilistic PermanentRate has condemned, so they
	// fail on every later read like an explicit permanent pattern.
	perm map[pageKey]bool
}

// splitmix64 is the avalanche mixer the probabilistic decisions hash with.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faultRoll derives a uniform [0, 1) variate for one decision (salt) on one
// read occurrence of one page, as a pure function of the plan seed.
func faultRoll(seed int64, key pageKey, occ uint64, salt uint64) float64 {
	h := splitmix64(uint64(seed) ^ salt)
	h = splitmix64(h ^ uint64(key.file)<<32 ^ uint64(key.page))
	h = splitmix64(h ^ occ)
	return float64(h>>11) / float64(1<<53)
}

const (
	saltTransient = 0x7472616e7369656e // "transien"
	saltPermanent = 0x7065726d616e656e // "permanen"
)

// SetFaultPlan installs (or, with a zero plan, clears) the device's fault
// plan. Installing a plan resets all evaluation state — page read ordinals,
// sticky permanent pages, pattern budgets — so the same
// plan replays the same fault sequence.
func (d *Device) SetFaultPlan(plan FaultPlan) {
	d.faultMu.Lock()
	defer d.faultMu.Unlock()
	if !plan.active() {
		d.faults = nil
		d.faultsArmed.Store(false)
		return
	}
	st := &faultState{
		plan:    plan,
		patLeft: make([]int, len(plan.Pages)),
		occ:     make(map[pageKey]uint64),
		perm:    make(map[pageKey]bool),
	}
	for i, pf := range plan.Pages {
		if pf.Count <= 0 || pf.Kind == FaultPermanent {
			st.patLeft[i] = -1
		} else {
			st.patLeft[i] = pf.Count
		}
	}
	d.faults = st
	d.faultsArmed.Store(true)
}

// takeFault decides the fate of one platter-path read of key: an injected
// error, or none. Called from readPage's fault hook
// before any cache touch or platter charge — a faulted read costs nothing,
// which is what lets the retry layer promise that retries never extend
// simulated charges beyond I/O actually performed.
func (d *Device) takeFault(key pageKey) error {
	d.faultMu.Lock()
	defer d.faultMu.Unlock()
	st := d.faults
	if st == nil {
		return nil
	}
	ordinal := st.occ[key]
	st.occ[key] = ordinal + 1

	// Explicit patterns first.
	for i := range st.plan.Pages {
		pf := &st.plan.Pages[i]
		if pf.File != key.file || (pf.Page >= 0 && pf.Page != key.page) {
			continue
		}
		if st.patLeft[i] == 0 {
			continue
		}
		if st.patLeft[i] > 0 {
			st.patLeft[i]--
		}
		if pf.Kind == FaultPermanent {
			d.permanentFaults.Add(1)
			return &faultErr{kind: FaultPermanent, file: key.file, page: key.page, cause: pf.Err}
		}
		d.transientFaults.Add(1)
		return &faultErr{kind: FaultTransient, file: key.file, page: key.page, cause: pf.Err}
	}

	// Sticky probabilistic permanents.
	if st.perm[key] {
		d.permanentFaults.Add(1)
		return &faultErr{kind: FaultPermanent, file: key.file, page: key.page}
	}

	if r := st.plan.PermanentRate; r > 0 && faultRoll(st.plan.Seed, key, ordinal, saltPermanent) < r {
		st.perm[key] = true
		d.permanentFaults.Add(1)
		return &faultErr{kind: FaultPermanent, file: key.file, page: key.page}
	}
	if r := st.plan.TransientRate; r > 0 && faultRoll(st.plan.Seed, key, ordinal, saltTransient) < r {
		d.transientFaults.Add(1)
		return &faultErr{kind: FaultTransient, file: key.file, page: key.page}
	}
	return nil
}

// SetFaultPlan fans the plan out to every member with a per-member seed
// offset, decorrelating the members' fault sequences (their local page
// spaces overlap, so a shared seed would fault the same (file, page) keys
// everywhere in lockstep). Explicit Pages entries name array-global files:
// each goes, under its member-local id, to the one member that owns the file.
func (a *DeviceArray) SetFaultPlan(plan FaultPlan) {
	for i, m := range a.members {
		p := plan
		p.Pages = nil
		for _, pf := range plan.Pages {
			if dev, local := a.decode(pf.File); dev == m {
				pf.File = local
				p.Pages = append(p.Pages, pf)
			}
		}
		if p.active() {
			p.Seed = plan.Seed + int64(i)*0x9e37
		}
		m.SetFaultPlan(p)
	}
}
