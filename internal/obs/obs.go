// Package obs is the flow-wide observability layer: hierarchical spans,
// a metrics registry (counters, gauges and one histogram kind,
// BucketHist) that merges across recorders, and exporters for human
// text summaries, machine JSONL event logs, Prometheus text and Chrome
// trace_event JSON (loadable in chrome://tracing or Perfetto). Every
// metric exporter lists every counter, set gauge and histogram.
//
// The package is dependency-free and safe for concurrent use. Every
// entry point is nil-safe: a nil *Recorder — and the nil *Span values it
// hands out — turns all recording into branch-predictable no-ops, so
// instrumented hot paths cost nothing when observability is off (the
// BenchmarkImplementNoObs / BenchmarkImplementObsNil pair at the repo
// root gates the nil-recorder overhead within 1%).
//
// Recording is deterministic-safe by construction: spans and metrics
// observe the flow, they never feed anything back into it. In
// particular no timestamp ever reaches a seeded-RNG code path, so
// results are bit-identical with and without a recorder attached.
package obs

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span or event. Values should be
// strings, integers or floats so every exporter can render them.
type Attr struct {
	Key string
	Val any
}

// String returns a string-valued attribute.
func String(k, v string) Attr { return Attr{k, v} }

// Int returns an integer-valued attribute.
func Int(k string, v int) Attr { return Attr{k, int64(v)} }

// Float returns a float-valued attribute.
func Float(k string, v float64) Attr { return Attr{k, v} }

// SpanRecord is one finished span as stored by the recorder. Start is an
// offset from the recorder's epoch, so records from one recorder are
// directly comparable. CPU is the process-wide CPU-time delta over the
// span's lifetime (user+system, best effort): exact for serial sections,
// an upper bound when other goroutines run concurrently.
type SpanRecord struct {
	ID     int64
	Parent int64 // 0 = root span
	Name   string
	// Lane is the rendering lane (Chrome trace "thread"): concurrent
	// spans — implement workers, tempering chains — are assigned
	// distinct lanes so they draw side by side on a timeline.
	Lane  int
	Start time.Duration
	Dur   time.Duration
	CPU   time.Duration
	Attrs []Attr
}

// Recorder collects spans and metrics for one run. The zero value is
// not usable; construct with New. All methods are safe for concurrent
// use, and all methods on a nil *Recorder are no-ops.
type Recorder struct {
	epoch  time.Time
	now    func() time.Duration
	cpu0   time.Duration
	nextID atomic.Int64

	mu        sync.Mutex
	spans     []SpanRecord
	laneNames map[int]string
	sink      func(SpanRecord)

	counters sync.Map // string -> *Counter
	gauges   sync.Map // string -> *Gauge
	hists    sync.Map // string -> *BucketHist
}

// New returns an empty recorder with its epoch at the current time.
func New() *Recorder {
	r := &Recorder{epoch: time.Now(), cpu0: processCPU()}
	r.now = func() time.Duration { return time.Since(r.epoch) }
	return r
}

// newWithClock returns a recorder on a fake clock that advances by step
// per reading — deterministic span timestamps for golden tests.
func newWithClock(step time.Duration) *Recorder {
	var ticks atomic.Int64
	r := &Recorder{}
	r.now = func() time.Duration {
		return time.Duration(ticks.Add(int64(step)) - int64(step))
	}
	return r
}

// Span is one open span. A span is created by Recorder.Start (root) or
// Span.Child (nested) and finished with End; until End the span is not
// visible to exporters. All methods on a nil *Span are no-ops, so
// instrumented code never needs to branch on whether recording is on.
type Span struct {
	r      *Recorder
	id     int64
	parent int64
	name   string
	start  time.Duration
	cpu0   time.Duration

	mu    sync.Mutex
	lane  int
	attrs []Attr
}

// Start opens a root span.
func (r *Recorder) Start(name string, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	return r.newSpan(0, 0, name, attrs)
}

// StartChild opens a span under parent when parent belongs to r, and a
// root span on r otherwise (including parent == nil). It lets callers
// thread an optional parent through layers without caring whether those
// layers share one recorder.
func StartChild(r *Recorder, parent *Span, name string, attrs ...Attr) *Span {
	if parent != nil && parent.r == r {
		return parent.Child(name, attrs...)
	}
	return r.Start(name, attrs...)
}

func (r *Recorder) newSpan(parent int64, lane int, name string, attrs []Attr) *Span {
	s := &Span{
		r:      r,
		id:     r.nextID.Add(1),
		parent: parent,
		lane:   lane,
		name:   name,
		start:  r.now(),
		cpu0:   processCPU(),
	}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	return s
}

// Child opens a span nested under s, inheriting s's lane.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.r.newSpan(s.id, s.LaneVal(), name, attrs)
}

// WithLane moves the span to a rendering lane and returns the span, so
// it chains off Start/Child. Concurrent spans (implement workers,
// tempering chains) should sit on distinct lanes.
func (s *Span) WithLane(lane int) *Span {
	if s != nil {
		s.mu.Lock()
		s.lane = lane
		s.mu.Unlock()
	}
	return s
}

// LaneVal returns the span's lane (0 for a nil span).
func (s *Span) LaneVal() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lane
}

// Set appends attributes to the span (typically outcomes known only at
// the end, like a search's CF and tool-run count).
func (s *Span) Set(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// End finishes the span and hands its record to the recorder.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.r.now()
	cpu := processCPU() - s.cpu0
	s.mu.Lock()
	rec := SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Lane:   s.lane,
		Start:  s.start,
		Dur:    end - s.start,
		CPU:    cpu,
		Attrs:  s.attrs,
	}
	s.mu.Unlock()
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, rec)
	sink := s.r.sink
	s.r.mu.Unlock()
	if sink != nil {
		sink(rec)
	}
}

// SetSink installs a callback invoked synchronously with every span
// record the moment it finishes (End for spans, immediately for
// events) — the span→event bridge long-running services use to stream
// per-job progress while the run is still going, instead of waiting
// for an exporter over the finished recorder. The sink runs on the
// goroutine that ended the span and must not call back into the
// recorder's lock-holding methods; a nil fn (or a nil receiver)
// disables streaming.
func (r *Recorder) SetSink(fn func(SpanRecord)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = fn
	r.mu.Unlock()
}

// Event records a zero-duration instant under s.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	sp := s.Child(name, attrs...)
	sp.recordInstant()
}

// Event records a zero-duration root instant (e.g. a one-shot warning).
func (r *Recorder) Event(name string, attrs ...Attr) {
	if r == nil {
		return
	}
	r.Start(name, attrs...).recordInstant()
}

func (s *Span) recordInstant() {
	rec := SpanRecord{ID: s.id, Parent: s.parent, Name: s.name, Lane: s.lane, Start: s.start, Attrs: s.attrs}
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, rec)
	sink := s.r.sink
	s.r.mu.Unlock()
	if sink != nil {
		sink(rec)
	}
}

// LaneLabel names a lane for the exporters (rendered as the Chrome
// trace thread name, e.g. "stitch chain 2"). The last label set wins.
func (r *Recorder) LaneLabel(lane int, label string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.laneNames == nil {
		r.laneNames = make(map[int]string)
	}
	r.laneNames[lane] = label
	r.mu.Unlock()
}

// Each runs fn(i, worker) for every i in [0, n) on min(workers, n)
// goroutines, numbered 1.., and returns when all calls have. The
// goroutines pull the next index in ascending order: a caller that wants
// a start order passes its own order[i]. workers < 1 selects GOMAXPROCS.
// Each is the one fixed fan-out loop of the library; it labels no lane,
// so the lanes another phase labelled in the same trace stay that
// phase's.
//
// The caller only waits: with worker 1 on the calling goroutine, a
// short fan-out runs nearly serial on 2 cores (the one goroutine
// started sits in the caller's run-next slot, which other processors
// steal from late). A call costs a goroutine per worker and a wait, so
// Each is for items that outweigh that; a loop of short passes runs on
// one goroutine instead.
func Each(workers, n int, fn func(i, worker int)) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 1; w <= min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i, w)
			}
		}()
	}
	wg.Wait()
}

// Lanes is Each with every worker a rendering lane: lanes 1..workers,
// labelled "<label> 0", "<label> 1", ..., so the spans fn moves to its
// lane (WithLane) draw as parallel worker tracks. A nil recorder runs the
// same loop, unlabelled.
func (r *Recorder) Lanes(label string, workers, n int, fn func(i, lane int)) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	for lane := 1; lane <= min(workers, n); lane++ {
		r.LaneLabel(lane, fmt.Sprintf("%s %d", label, lane-1))
	}
	Each(workers, n, fn)
}

// Spans returns a snapshot of the finished spans, ordered by start time
// (ties broken by span ID, so the order is deterministic for a
// deterministic clock).
func (r *Recorder) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]SpanRecord(nil), r.spans...)
	r.mu.Unlock()
	sortSpans(out)
	return out
}

// Wall returns the wall time elapsed since the recorder was created.
func (r *Recorder) Wall() time.Duration {
	if r == nil {
		return 0
	}
	return r.now()
}

// CPU returns the process CPU time (user+system) consumed since the
// recorder was created (best effort; 0 where unsupported).
func (r *Recorder) CPU() time.Duration {
	if r == nil {
		return 0
	}
	return processCPU() - r.cpu0
}
