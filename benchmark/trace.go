package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spaceodyssey/internal/simdisk"
)

// Span names. A span's layer is the part of its name before the dot.
const (
	spCoreQuery = iota
	spDiskRead
	spDiskWrite
	spOctreeWalk
	spOctreeBuild
	spPagefileRead
	spObjectDecode
	spObjectEncode
	spRawfileScan
	spCoreKeyOf
	spCoreMergerLookup
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"core.query", "simdisk.read", "simdisk.write",
	"octree.walk", "octree.build", "pagefile.read",
	"object.decode", "object.encode", "rawfile.scan",
	"core.keyof", "core.merger_lookup",
}

// File kinds, from the name a file was created with.
const (
	kindOther = iota
	kindRaw
	kindOctree
	kindMerge
	numKinds
)

var kindNames = [numKinds]string{"other", "raw", "octree", "merge"}

func kindOf(fileName string) uint8 {
	switch {
	case strings.HasSuffix(fileName, ".octree"):
		return kindOctree
	case strings.HasSuffix(fileName, ".raw"):
		return kindRaw
	case strings.HasPrefix(fileName, "merge:"):
		return kindMerge
	}
	return kindOther
}

// span is one timed call. Spans live in a preallocated buffer until the run
// ends; each slot is written by the one goroutine that made the call.
type span struct {
	start, end int64  // ns since the tracer's epoch
	trace      uint32 // the query (or probe) the call belongs to; 0 = none
	parent     int32  // index of the span that caused it; -1 = none
	pages      int32  // pages moved (storage and page-level spans) or calls made (batched spans)
	name       uint8
	kind       uint8 // file kind, for storage spans
	lane       uint8 // client that made the call
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer records spans. It is off until enabled, so set-up I/O (writing the
// raw files) is not recorded.
type tracer struct {
	epoch   time.Time
	buf     []span
	n       atomic.Int64
	dropped atomic.Int64
	on      atomic.Bool
	traces  atomic.Uint32
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), buf: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index, or -1 when tracing is off or the
// buffer is full.
func (t *tracer) begin(name uint8, tc *traceCtx) int32 {
	if !t.on.Load() {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return -1
	}
	s := &t.buf[i]
	*s = span{name: name, parent: -1}
	if tc != nil {
		s.trace, s.parent, s.lane = tc.trace, tc.parent, tc.lane
	}
	s.start = t.now()
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.buf[i].end = t.now()
	}
}

// endUnits closes a span that covered `units` pages (or calls, for the
// sub-microsecond functions timed in batches).
func (t *tracer) endUnits(i int32, units int64) {
	if i >= 0 {
		t.buf[i].end = t.now()
		t.buf[i].pages = int32(units)
	}
}

func (t *tracer) spans() []span {
	n := t.n.Load()
	if n > int64(len(t.buf)) {
		n = int64(len(t.buf))
	}
	return t.buf[:n]
}

// traceCtx rides a context down the stack: spans recorded under it belong to
// query `trace` and were caused by span `parent`.
type traceCtx struct {
	trace  uint32
	parent int32
	lane   uint8
}

type traceKey struct{}

// open starts a span for a new unit of work (a query or a probe call) and
// returns a context under which the layers below record their spans as its
// children.
func (t *tracer) open(ctx context.Context, name uint8, lane int) (context.Context, int32) {
	tc := &traceCtx{trace: t.traces.Add(1), parent: -1, lane: uint8(lane)}
	i := t.begin(name, tc)
	tc.parent = i
	return context.WithValue(ctx, traceKey{}, tc), i
}

func traceFrom(ctx context.Context) *traceCtx {
	if ctx == nil {
		return nil
	}
	tc, _ := ctx.Value(traceKey{}).(*traceCtx)
	return tc
}

// tracedStorage wraps the simulated storage and records a span for every
// page I/O call that crosses it, with the kind of file it touched and the
// query that caused it. Everything else passes through.
type tracedStorage struct {
	simdisk.Storage
	tr    *tracer
	mu    sync.RWMutex
	kinds map[simdisk.FileID]uint8
}

func newTracedStorage(inner simdisk.Storage, tr *tracer) *tracedStorage {
	return &tracedStorage{Storage: inner, tr: tr, kinds: map[simdisk.FileID]uint8{}}
}

func (s *tracedStorage) CreateFile(name string) simdisk.FileID {
	return s.CreateFileInGroup(name, "")
}

func (s *tracedStorage) CreateFileInGroup(name, group string) simdisk.FileID {
	id := s.Storage.CreateFileInGroup(name, group)
	s.mu.Lock()
	s.kinds[id] = kindOf(name)
	s.mu.Unlock()
	return id
}

func (s *tracedStorage) begin(ctx context.Context, name uint8, id simdisk.FileID, pages int64) int32 {
	i := s.tr.begin(name, traceFrom(ctx))
	if i >= 0 {
		s.mu.RLock()
		kind := s.kinds[id]
		s.mu.RUnlock()
		sp := &s.tr.buf[i]
		sp.kind, sp.pages = kind, int32(pages)
	}
	return i
}

func (s *tracedStorage) ReadPage(id simdisk.FileID, idx int64, buf []byte) error {
	return s.ReadPageCtx(nil, id, idx, buf)
}

func (s *tracedStorage) ReadPageCtx(ctx context.Context, id simdisk.FileID, idx int64, buf []byte) error {
	i := s.begin(ctx, spDiskRead, id, 1)
	err := s.Storage.ReadPageCtx(ctx, id, idx, buf)
	s.tr.end(i)
	return err
}

func (s *tracedStorage) ReadRun(id simdisk.FileID, start, n int64) ([]byte, error) {
	return s.ReadRunCtx(nil, id, start, n)
}

func (s *tracedStorage) ReadRunCtx(ctx context.Context, id simdisk.FileID, start, n int64) ([]byte, error) {
	i := s.begin(ctx, spDiskRead, id, n)
	buf, err := s.Storage.ReadRunCtx(ctx, id, start, n)
	s.tr.end(i)
	return buf, err
}

func (s *tracedStorage) WritePage(id simdisk.FileID, idx int64, data []byte) error {
	return s.WritePageCtx(nil, id, idx, data)
}

func (s *tracedStorage) WritePageCtx(ctx context.Context, id simdisk.FileID, idx int64, data []byte) error {
	i := s.begin(ctx, spDiskWrite, id, 1)
	err := s.Storage.WritePageCtx(ctx, id, idx, data)
	s.tr.end(i)
	return err
}

func (s *tracedStorage) AppendPage(id simdisk.FileID, data []byte) (int64, error) {
	return s.AppendPageCtx(nil, id, data)
}

func (s *tracedStorage) AppendPageCtx(ctx context.Context, id simdisk.FileID, data []byte) (int64, error) {
	i := s.begin(ctx, spDiskWrite, id, 1)
	idx, err := s.Storage.AppendPageCtx(ctx, id, data)
	s.tr.end(i)
	return idx, err
}

// covered returns, for every span, the time its direct children cover.
// Children of one span run one after another on the caller's goroutine, so
// the covered time is their sum.
func covered(spans []span) []int64 {
	cover := make([]int64, len(spans))
	for i := range spans {
		if p := spans[i].parent; p >= 0 && spans[i].end > 0 {
			cover[p] += spans[i].dur()
		}
	}
	return cover
}

// selfTimes returns, ascending, the self time of every finished span with
// the given name: its duration minus what its children cover.
func selfTimes(spans []span, cover []int64, name uint8) []int64 {
	var out []int64
	for i := range spans {
		if spans[i].name == name && spans[i].end > 0 {
			out = append(out, spans[i].dur()-cover[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// durations returns, ascending, the duration of every finished span with the
// given name.
func durations(spans []span, name uint8) []int64 {
	var out []int64
	for i := range spans {
		if spans[i].name == name && spans[i].end > 0 {
			out = append(out, spans[i].dur())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// maxTraceEvents bounds the trace file: the spans beyond it still count in
// the metrics, they are only left out of the file.
const maxTraceEvents = 200000

// writeChromeTrace writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev): one complete event per span, one
// row per client.
func writeChromeTrace(dir, workload string, spans []span, dropped int64) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	n := len(spans)
	if n > maxTraceEvents {
		n = maxTraceEvents
	}
	events := make([]event, 0, n)
	for i := range spans[:n] {
		s := &spans[i]
		if s.end == 0 {
			continue
		}
		name := spanNames[s.name]
		args := map[string]any{"id": i, "trace": s.trace, "parent": s.parent}
		if s.pages > 0 {
			args["pages"] = s.pages
			args["file"] = kindNames[s.kind]
		}
		events = append(events, event{
			Name: name, Cat: name[:strings.IndexByte(name, '.')], Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: int(s.lane), Args: args,
		})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
		"otherData": map[string]any{
			"workload":       workload,
			"spans_recorded": len(spans),
			"spans_written":  len(events),
			"spans_dropped":  dropped,
		},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace.%s.json", workload))
	return path, os.WriteFile(path, b, 0o644)
}
