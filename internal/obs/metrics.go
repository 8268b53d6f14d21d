package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. Hot paths hold
// on to the *Counter returned by Recorder.Counter and call Add on it —
// one atomic add, no map lookup. All methods are nil-safe.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric (e.g. an acceptance rate).
type Gauge struct {
	bits atomic.Uint64
	set  atomic.Bool
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
		g.set.Store(true)
	}
}

// Value returns the last value set (0 if never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// read returns the gauge's value and whether it was set, the flag
// loaded first so a set gauge never reads the value from before Set.
func (g *Gauge) read() (float64, bool) {
	set := g.set.Load()
	return g.Value(), set
}

// DefaultLatencyBuckets are the BucketHist bounds used when none are
// given: a roughly-logarithmic ladder from 1 to 30,000, sized for
// service latencies in milliseconds (queue waits, stage and job
// durations) and wide enough for the tool runs of one block search.
var DefaultLatencyBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// BucketHist is a fixed-bucket histogram — the registry's one
// histogram kind: observations land in the first bucket whose upper
// bound is >= the value (with an implicit +Inf overflow bucket), a few
// atomic operations per observation — cheap enough for per-span
// recording on a service hot path. It supports quantile estimation,
// Prometheus histogram exposition and merging across recorders. All
// methods are nil-safe.
type BucketHist struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // +Inf until the first observation
	maxBits atomic.Uint64 // -Inf until the first observation
}

// NewBucketHist returns a histogram over the given ascending upper
// bounds (DefaultLatencyBuckets when none are given).
func NewBucketHist(bounds []float64) *BucketHist {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	h := &BucketHist{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample.
func (h *BucketHist) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1) // first bound >= v
	h.add(1, v, v, v)
}

// add folds n samples with the given sum, min and max into the totals.
// count is stored last, so a Snapshot that reads it first never sees a
// sample whose min and max have not landed yet.
func (h *BucketHist) add(n int64, sum, lo, hi float64) {
	addFloat(&h.sumBits, sum)
	casFloat(&h.minBits, func(cur float64) bool { return lo < cur }, lo)
	casFloat(&h.maxBits, func(cur float64) bool { return hi > cur }, hi)
	h.count.Add(n)
}

// merge adds a snapshot's samples bucket by bucket. A source bucket
// lands in the bucket holding its upper bound, which is the same
// bucket when the bounds match.
func (h *BucketHist) merge(s BucketSnapshot) {
	if s.Count == 0 {
		return
	}
	for i, c := range s.Counts {
		ub := math.Inf(1)
		if i < len(s.Bounds) {
			ub = s.Bounds[i]
		}
		h.counts[sort.SearchFloat64s(h.bounds, ub)].Add(c)
	}
	h.add(s.Count, s.Sum, s.Min, s.Max)
}

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// casFloat atomically replaces the stored float with v while better
// reports v beats the current value.
func casFloat(bits *atomic.Uint64, better func(cur float64) bool, v float64) {
	for {
		old := bits.Load()
		if !better(math.Float64frombits(old)) || bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// BucketSnapshot is a point-in-time copy of a BucketHist. Counts has
// one entry per bound plus the +Inf overflow bucket; entries are
// per-bucket (not cumulative).
type BucketSnapshot struct {
	Bounds        []float64
	Counts        []int64
	Count         int64
	Sum, Min, Max float64
}

// Snapshot copies the histogram's current state; an empty histogram
// reads Min and Max 0. Count is read first, so every sample it counts
// is in Sum, Min and Max; concurrent observers may still land between
// the bucket and total reads — at most the handful in flight, fine for
// monitoring.
func (h *BucketHist) Snapshot() BucketSnapshot {
	if h == nil {
		return BucketSnapshot{}
	}
	s := BucketSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts)), Count: h.count.Load()}
	if s.Count > 0 {
		s.Sum = math.Float64frombits(h.sumBits.Load())
		s.Min = math.Float64frombits(h.minBits.Load())
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the p-quantile (0 <= p <= 1) by linear
// interpolation inside the bucket holding the target rank — the
// standard fixed-bucket estimate, exact at bucket boundaries. The
// overflow bucket interpolates toward the observed maximum, and the
// result is clamped to [Min, Max], so estimates never exceed reality.
func (s BucketSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	rank := p * float64(s.Count)
	cum := int64(0)
	for i, c := range s.Counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Max
		if i < len(s.Bounds) {
			hi = s.Bounds[i]
		}
		v := lo
		if c > 0 && hi > lo {
			v = lo + (hi-lo)*(rank-float64(cum))/float64(c)
		}
		return math.Min(math.Max(v, s.Min), s.Max)
	}
	return s.Max
}

// Mean returns Sum/Count (0 for an empty snapshot).
func (s BucketSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op counter) on a nil recorder.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters.Load(name); ok {
		return c.(*Counter)
	}
	c, _ := r.counters.LoadOrStore(name, &Counter{})
	return c.(*Counter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.gauges.Load(name); ok {
		return g.(*Gauge)
	}
	g, _ := r.gauges.LoadOrStore(name, &Gauge{})
	return g.(*Gauge)
}

// BucketHist returns the named histogram, creating it on first use
// with the given bounds (DefaultLatencyBuckets when nil). The first
// creation wins the bounds; later calls return the existing histogram
// regardless of the bounds argument.
func (r *Recorder) BucketHist(name string, bounds []float64) *BucketHist {
	if r == nil {
		return nil
	}
	if h, ok := r.hists.Load(name); ok {
		return h.(*BucketHist)
	}
	h, _ := r.hists.LoadOrStore(name, NewBucketHist(bounds))
	return h.(*BucketHist)
}

// BucketHistValue returns the named histogram's snapshot (the zero
// snapshot if absent).
func (r *Recorder) BucketHistValue(name string) BucketSnapshot {
	if r == nil {
		return BucketSnapshot{}
	}
	if h, ok := r.hists.Load(name); ok {
		return h.(*BucketHist).Snapshot()
	}
	return BucketSnapshot{}
}

// Add increments the named counter (convenience for cold paths; hot
// loops should cache the *Counter).
func (r *Recorder) Add(name string, d int64) { r.Counter(name).Add(d) }

// SetGauge records the named gauge's value.
func (r *Recorder) SetGauge(name string, v float64) { r.Gauge(name).Set(v) }

// CounterValue returns the named counter's value (0 if absent).
func (r *Recorder) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	if c, ok := r.counters.Load(name); ok {
		return c.(*Counter).Value()
	}
	return 0
}

// GaugeValue returns the named gauge's value and whether it was set.
func (r *Recorder) GaugeValue(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	if g, ok := r.gauges.Load(name); ok {
		return g.(*Gauge).read()
	}
	return 0, false
}

// Merge folds src's registry into r — how a long-lived registry takes
// in a finished run: counters add, a gauge src set takes src's value,
// and histograms add bucket by bucket, a histogram r lacks starting
// with src's bounds. Either side may be nil.
func (r *Recorder) Merge(src *Recorder) {
	if r == nil || src == nil {
		return
	}
	m := src.snapshot()
	for _, c := range m.counters {
		r.Add(c.name, c.val)
	}
	for _, g := range m.gauges {
		r.SetGauge(g.name, g.val)
	}
	for _, h := range m.hists {
		r.BucketHist(h.name, h.val.Bounds).merge(h.val)
	}
}

// registrySnapshot is the metric registry at one moment, each kind in
// name order: every counter, every gauge that was set, every
// histogram. Merge and the three exporters all read the registry
// through it.
type registrySnapshot struct {
	counters []named[int64]
	gauges   []named[float64]
	hists    []named[BucketSnapshot]
}

type named[T any] struct {
	name string
	val  T
}

func (r *Recorder) snapshot() registrySnapshot {
	return registrySnapshot{
		counters: entries(&r.counters, func(c *Counter) (int64, bool) { return c.Value(), true }),
		gauges:   entries(&r.gauges, (*Gauge).read),
		hists:    entries(&r.hists, func(h *BucketHist) (BucketSnapshot, bool) { return h.Snapshot(), true }),
	}
}

// entries reads one registry map through read, which may skip an
// entry, sorted by name.
func entries[M, T any](m *sync.Map, read func(M) (T, bool)) []named[T] {
	var out []named[T]
	m.Range(func(k, v any) bool {
		if val, ok := read(v.(M)); ok {
			out = append(out, named[T]{k.(string), val})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
