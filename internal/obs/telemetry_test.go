package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketHistQuantiles checks bucket assignment and the
// interpolated quantile estimates against hand-computed values.
func TestBucketHistQuantiles(t *testing.T) {
	h := NewBucketHist([]float64{10, 20, 50, 100})
	// 100 samples uniform on (0,100]: k = 1..100.
	for k := 1; k <= 100; k++ {
		h.Observe(float64(k))
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("snapshot count/min/max = %d/%g/%g", s.Count, s.Min, s.Max)
	}
	wantCounts := []int64{10, 10, 30, 50, 0} // (0,10] (10,20] (20,50] (50,100] (100,inf)
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: count %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Sum != 5050 {
		t.Errorf("sum = %g, want 5050", s.Sum)
	}
	// The uniform distribution makes interpolation near-exact: the
	// p-quantile of 1..100 is ~100p.
	for _, tc := range []struct{ p, want, tol float64 }{
		{0.50, 50, 1}, {0.95, 95, 1}, {0.99, 99, 1}, {1.0, 100, 0},
	} {
		got := s.Quantile(tc.p)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%g) = %g, want %g±%g", tc.p, got, tc.want, tc.tol)
		}
	}
	if got := s.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %g, want 50.5", got)
	}
}

// TestBucketHistOverflowBucket: samples above every bound land in the
// +Inf bucket and quantiles interpolate toward the observed max, never
// past it.
func TestBucketHistOverflowBucket(t *testing.T) {
	h := NewBucketHist([]float64{1})
	h.Observe(5)
	h.Observe(500)
	s := h.Snapshot()
	if s.Counts[1] != 2 {
		t.Fatalf("overflow bucket count = %d, want 2", s.Counts[1])
	}
	if q := s.Quantile(0.99); q > s.Max {
		t.Errorf("Quantile(0.99) = %g exceeds max %g", q, s.Max)
	}
}

// TestBucketHistNilAndEmpty: nil histograms and empty snapshots are
// total no-ops.
func TestBucketHistNilAndEmpty(t *testing.T) {
	var h *BucketHist
	h.Observe(1)
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("nil BucketHist must read as zero")
	}
	if e := NewBucketHist(nil).Snapshot(); e.Min != 0 || e.Max != 0 || e.Sum != 0 {
		t.Fatalf("empty BucketHist reads min/max/sum %g/%g/%g, want 0/0/0", e.Min, e.Max, e.Sum)
	}
	var r *Recorder
	if r.BucketHist("x", nil) != nil {
		t.Fatal("nil recorder must hand out a nil BucketHist")
	}
	if v := r.BucketHistValue("x"); v.Count != 0 {
		t.Fatal("nil recorder BucketHistValue must be zero")
	}
}

// TestBucketHistRegistry: first creation wins the bounds, later calls
// share the instance, defaults apply for nil bounds.
func TestBucketHistRegistry(t *testing.T) {
	r := New()
	a := r.BucketHist("lat", []float64{1, 2})
	b := r.BucketHist("lat", []float64{99})
	if a != b {
		t.Fatal("same name must return the same histogram")
	}
	a.Observe(1.5)
	if got := r.BucketHistValue("lat"); got.Count != 1 || got.Counts[1] != 1 {
		t.Fatalf("registry snapshot = %+v", got)
	}
	d := r.BucketHist("def", nil)
	if d.Snapshot().Bounds[0] != DefaultLatencyBuckets[0] {
		t.Fatal("nil bounds must select DefaultLatencyBuckets")
	}
}

// TestBucketHistConcurrent hammers one histogram from many goroutines;
// totals must balance (run under -race in CI).
func TestBucketHistConcurrent(t *testing.T) {
	h := NewBucketHist([]float64{10, 100})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64((w*per + i) % 200))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var bucketTotal int64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

// TestBucketHistFirstObservations: two goroutines make a fresh
// histogram's first two observations at once, one observing 1 and the
// other 2, so each may find the histogram empty. Min and Max must come
// out 1 and 2 whichever lands first. Rounds of fresh histograms, each
// round behind a start barrier, give the interleavings room to occur.
func TestBucketHistFirstObservations(t *testing.T) {
	const rounds, per = 100, 2000
	bad := 0
	for r := 0; r < rounds; r++ {
		hs := make([]*BucketHist, per)
		for i := range hs {
			hs[i] = NewBucketHist([]float64{1.5})
		}
		var ready, done sync.WaitGroup
		start := make(chan struct{})
		for _, v := range []float64{1, 2} {
			ready.Add(1)
			done.Add(1)
			go func() {
				defer done.Done()
				ready.Done()
				<-start
				for _, h := range hs {
					h.Observe(v)
				}
			}()
		}
		ready.Wait()
		close(start)
		done.Wait()
		for _, h := range hs {
			if s := h.Snapshot(); s.Count != 2 || s.Min != 1 || s.Max != 2 {
				bad++
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d two-observer histograms lost an observation's min or max", bad, rounds*per)
	}
}

// TestRecorderMerge: counters add, a gauge the source set overwrites
// (one it never set does not), histograms add bucket by bucket — a
// histogram the destination lacks takes the source's bounds, one with
// other bounds puts each source bucket in the bucket holding its upper
// bound — and min/max combine. Nil on either side is a no-op.
func TestRecorderMerge(t *testing.T) {
	dst, src := New(), New()
	dst.Add("runs", 2)
	src.Add("runs", 3)
	src.Add("src.only", 1)
	dst.SetGauge("rate", 0.5)
	dst.SetGauge("kept", 7)
	src.SetGauge("rate", 0.25)
	src.Gauge("kept") // registered, never set
	dst.BucketHist("lat", []float64{1, 10}).Observe(5)
	for _, v := range []float64{0.5, 20} {
		src.BucketHist("lat", []float64{1, 10}).Observe(v)
	}
	src.BucketHist("fresh", []float64{2, 4}).Observe(3)
	dst.BucketHist("coarse", []float64{10}).Observe(50)
	for _, v := range []float64{1, 8, 9} {
		src.BucketHist("coarse", []float64{2, 4, 8}).Observe(v)
	}

	dst.Merge(src)
	dst.Merge(nil)
	(*Recorder)(nil).Merge(src)

	if got := dst.CounterValue("runs"); got != 5 {
		t.Errorf("runs = %d, want 5", got)
	}
	if got := dst.CounterValue("src.only"); got != 1 {
		t.Errorf("src.only = %d, want 1", got)
	}
	if v, _ := dst.GaugeValue("rate"); v != 0.25 {
		t.Errorf("rate = %g, want the source's 0.25", v)
	}
	if v, _ := dst.GaugeValue("kept"); v != 7 {
		t.Errorf("kept = %g, want 7: the source never set it", v)
	}
	for _, tc := range []struct {
		name          string
		bounds        []float64
		counts        []int64
		count         int64
		sum, min, max float64
	}{
		{"lat", []float64{1, 10}, []int64{1, 1, 1}, 3, 25.5, 0.5, 20},
		{"fresh", []float64{2, 4}, []int64{0, 1, 0}, 1, 3, 3, 3},
		// 1 and 8 sit in buckets whose upper bounds (2, 8) fall in
		// (0, 10]; 9 sits in the source's +Inf bucket.
		{"coarse", []float64{10}, []int64{2, 2}, 4, 68, 1, 50},
	} {
		s := dst.BucketHistValue(tc.name)
		if fmt.Sprint(s.Bounds, s.Counts) != fmt.Sprint(tc.bounds, tc.counts) ||
			s.Count != tc.count || s.Sum != tc.sum || s.Min != tc.min || s.Max != tc.max {
			t.Errorf("%s merged to %+v, want bounds %v counts %v count %d sum %g min %g max %g",
				tc.name, s, tc.bounds, tc.counts, tc.count, tc.sum, tc.min, tc.max)
		}
	}
}

// TestExportersNameEveryMetric: the text report, the JSONL log and the
// Prometheus exposition each name every counter, set gauge and
// histogram of the registry.
func TestExportersNameEveryMetric(t *testing.T) {
	r := New()
	r.Add("parity.counter", 1)
	r.SetGauge("parity.gauge", 0.5)
	r.BucketHist("parity.hist", nil).Observe(3)
	for name, write := range map[string]func(io.Writer) error{
		"WriteText": r.WriteText, "WriteJSONL": r.WriteJSONL, "WritePrometheus": r.WritePrometheus,
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		for _, metric := range []string{"parity.counter", "parity.gauge", "parity.hist"} {
			if name == "WritePrometheus" {
				metric = strings.ReplaceAll(metric, ".", "_")
			}
			if !strings.Contains(buf.String(), metric) {
				t.Errorf("%s does not name %s:\n%s", name, metric, buf.String())
			}
		}
	}
}

// TestWritePrometheusRoundTrip populates every metric kind — including
// labeled registry names — and requires the exposition to pass the
// strict parser with the expected samples present exactly once.
func TestWritePrometheusRoundTrip(t *testing.T) {
	r := New()
	r.Add(`jobs_total{state="done"}`, 3)
	r.Add(`jobs_total{state="failed"}`, 1)
	r.Add("mincf.oracle_runs", 42)
	r.SetGauge("queue_depth", 7)
	r.BucketHist("probe_ms", nil).Observe(2.5)
	r.BucketHist("probe_ms", nil).Observe(7.5)
	bh := r.BucketHist(`stage_latency_ms{stage="synth"}`, []float64{1, 10})
	bh.Observe(0.5)
	bh.Observe(5)
	bh.Observe(50)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheusText(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	find := func(name string, labels map[string]string) *PromSample {
		for i := range samples {
			s := &samples[i]
			if s.Name != name {
				continue
			}
			ok := true
			for k, v := range labels {
				if s.Labels[k] != v {
					ok = false
					break
				}
			}
			if ok {
				return s
			}
		}
		t.Fatalf("sample %s%v missing from exposition:\n%s", name, labels, buf.String())
		return nil
	}
	if s := find("jobs_total", map[string]string{"state": "done"}); s.Value != 3 {
		t.Errorf("jobs_total{state=done} = %g", s.Value)
	}
	if s := find("mincf_oracle_runs", nil); s.Value != 42 {
		t.Errorf("dotted counter must export sanitized: %g", s.Value)
	}
	if s := find("queue_depth", nil); s.Value != 7 {
		t.Errorf("gauge = %g", s.Value)
	}
	if s := find("probe_ms_count", nil); s.Value != 2 {
		t.Errorf("histogram count = %g", s.Value)
	}
	if s := find("probe_ms_sum", nil); s.Value != 10 {
		t.Errorf("histogram sum = %g", s.Value)
	}
	// Classic histogram series: cumulative buckets, +Inf, and the
	// computed quantile companions, all carrying the stage label.
	lbl := func(le string) map[string]string {
		return map[string]string{"stage": "synth", "le": le}
	}
	if s := find("stage_latency_ms_bucket", lbl("1")); s.Value != 1 {
		t.Errorf("bucket le=1 = %g", s.Value)
	}
	if s := find("stage_latency_ms_bucket", lbl("10")); s.Value != 2 {
		t.Errorf("bucket le=10 must be cumulative: %g", s.Value)
	}
	if s := find("stage_latency_ms_bucket", lbl("+Inf")); s.Value != 3 {
		t.Errorf("bucket le=+Inf = %g", s.Value)
	}
	find("stage_latency_ms_count", map[string]string{"stage": "synth"})
	find("stage_latency_ms_p50", map[string]string{"stage": "synth"})
	find("stage_latency_ms_p95", map[string]string{"stage": "synth"})
	find("stage_latency_ms_p99", map[string]string{"stage": "synth"})

	// Exactly one TYPE line per family.
	typeLines := map[string]int{}
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if bytes.HasPrefix(line, []byte("# TYPE ")) {
			typeLines[string(line)]++
		}
	}
	for l, n := range typeLines {
		if n > 1 {
			t.Errorf("duplicate TYPE line %q", l)
		}
	}
	if r2 := (*Recorder)(nil); r2.WritePrometheus(&buf) != nil {
		t.Error("nil recorder WritePrometheus must be a no-op")
	}
}

// TestWritePrometheusBucketOrder: every histogram series lists its
// buckets in increasing numeric le order with +Inf last and equal to
// _count, as text format 0.0.4 requires (a string sort would print
// "+Inf", "1", "10", "100", …, "2.5"), and the exposition is the same
// text every time.
func TestWritePrometheusBucketOrder(t *testing.T) {
	r := New()
	for _, v := range []float64{0.5, 3, 40, 700, 9000, 50000} {
		r.BucketHist(`lat_ms{stage="b"}`, nil).Observe(v)
		r.BucketHist(`lat_ms{stage="a"}`, nil).Observe(v / 2)
	}
	var first, again bytes.Buffer
	if err := r.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if first.String() != again.String() {
		t.Errorf("exposition not deterministic:\n%s\n---\n%s", first.String(), again.String())
	}
	samples, err := ParsePrometheusText(first.Bytes())
	if err != nil {
		t.Fatalf("exposition fails the parser: %v\n%s", err, first.String())
	}
	for _, stage := range []string{"a", "b"} {
		var les []float64
		var inf, count float64
		for _, s := range samples {
			if s.Label("stage") != stage {
				continue
			}
			switch s.Name {
			case "lat_ms_bucket":
				le, err := parsePromValue(s.Label("le"))
				if err != nil {
					t.Fatal(err)
				}
				les = append(les, le)
				inf = s.Value
			case "lat_ms_count":
				count = s.Value
			}
		}
		want := append(append([]float64(nil), DefaultLatencyBuckets...), math.Inf(1))
		if !slices.Equal(les, want) {
			t.Errorf("stage %s: bucket bounds in order %v, want %v", stage, les, want)
		}
		if inf != 6 || count != inf {
			t.Errorf("stage %s: last bucket %g, _count %g, want 6 and 6", stage, inf, count)
		}
	}
}

// TestParsePrometheusRejects: the validator must fail on the classic
// syntax mistakes.
func TestParsePrometheusRejects(t *testing.T) {
	bad := map[string]string{
		"invalid name":      "1bad_name 3\n",
		"bad label name":    `x{1l="v"} 3` + "\n",
		"unquoted label":    `x{l=v} 3` + "\n",
		"unterminated":      `x{l="v} 3` + "\n",
		"bad escape":        `x{l="\q"} 3` + "\n",
		"duplicate label":   `x{l="a",l="b"} 3` + "\n",
		"bad value":         "x three\n",
		"bad type":          "# TYPE x sideways\nx 3\n",
		"duplicate TYPE":    "# TYPE x counter\n# TYPE x counter\nx 3\n",
		"TYPE after sample": "x 3\n# TYPE x counter\n",
		"bad timestamp":     "x 3 nineteen\n",
		"buckets out of order": "# TYPE h histogram\n" +
			`h_bucket{le="10"} 1` + "\n" + `h_bucket{le="2.5"} 1` + "\n" +
			`h_bucket{le="+Inf"} 1` + "\nh_count 1\n",
		"+Inf not last": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 1` + "\n" + `h_bucket{le="1"} 1` + "\nh_count 1\n",
		"no +Inf bucket": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\nh_sum 0.5\nh_count 1\n",
		"+Inf differs from _count": "# TYPE h histogram\n" +
			`h_bucket{l="a",le="+Inf"} 2` + "\n" + `h_count{l="a"} 3` + "\n",
		"no _count": "# TYPE h histogram\n" + `h_bucket{le="+Inf"} 2` + "\n",
	}
	for name, text := range bad {
		if _, err := ParsePrometheusText([]byte(text)); err == nil {
			t.Errorf("%s: parser accepted %q", name, text)
		}
	}
	good := "# HELP x a help line\n# TYPE x counter\nx{l=\"a\\\"b\\\\c\\nd\"} 3 1700000000\n\nx 4\n"
	samples, err := ParsePrometheusText([]byte(good))
	if err != nil {
		t.Fatalf("parser rejected valid text: %v", err)
	}
	if len(samples) != 2 || samples[0].Label("l") != "a\"b\\c\nd" {
		t.Fatalf("parsed %+v", samples)
	}
}

// TestFlightRecorderWraparound: the ring keeps exactly the last Size
// spans in recording order across wraps, and Total keeps counting.
func TestFlightRecorderWraparound(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 20; i++ {
		f.Record(SpanRecord{ID: int64(i + 1), Name: "s", Start: time.Duration(i) * time.Millisecond})
	}
	if f.Len() != 8 || f.Size() != 8 || f.Total() != 20 {
		t.Fatalf("len/size/total = %d/%d/%d", f.Len(), f.Size(), f.Total())
	}
	snap := f.Snapshot()
	for i, sr := range snap {
		if want := int64(13 + i); sr.ID != want {
			t.Fatalf("snapshot[%d].ID = %d, want %d (oldest-first)", i, sr.ID, want)
		}
	}
}

// TestFlightRecorderDumpDeterministic: two dumps of the same recorded
// sequence are byte-identical and parse as a Chrome trace document.
func TestFlightRecorderDumpDeterministic(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 11; i++ {
		f.Record(SpanRecord{
			ID:    int64(i + 1),
			Name:  "span",
			Start: time.Duration(i) * time.Millisecond,
			Dur:   time.Millisecond,
			Attrs: []Attr{Int("i", i)},
		})
	}
	var a, b bytes.Buffer
	if err := f.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("flight dumps of an unchanged ring must be byte-identical")
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("dump is not valid trace JSON: %v", err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans != 4 {
		t.Fatalf("dump has %d duration events, want 4 (ring size)", spans)
	}
}

// TestFlightRecorderNil: every method on a nil ring is a no-op, and a
// nil ring still writes a valid empty trace.
func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	f.Record(SpanRecord{ID: 1})
	if f.Len() != 0 || f.Size() != 0 || f.Total() != 0 || f.Snapshot() != nil {
		t.Fatal("nil ring must read as empty")
	}
	var buf bytes.Buffer
	if err := f.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("nil ring dump must still be valid JSON")
	}
}

// TestSetSinkStormWithFlightRing: the -race storm the satellite task
// asks for — many goroutines completing spans while the sink is
// concurrently installed, swapped to a flight ring, and cleared. Every
// span recorded while the ring sink was stable must land in the ring;
// no count may be lost by the recorder itself.
func TestSetSinkStormWithFlightRing(t *testing.T) {
	r := New()
	ring := NewFlightRecorder(64)
	var delivered Counter

	const workers, per = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	// Sink churner: install/clear/swap concurrently with span completion.
	go func() {
		defer close(churnDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				r.SetSink(func(sr SpanRecord) {
					delivered.Add(1)
					ring.Record(sr)
				})
			case 1:
				r.SetSink(func(SpanRecord) { delivered.Add(1) })
			case 2:
				r.SetSink(nil)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := r.Start("storm", Int("w", w), Int("i", i))
				sp.Child("inner").End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-churnDone

	if got := len(r.Spans()); got != workers*per*2 {
		t.Fatalf("recorder kept %d spans, want %d", got, workers*per*2)
	}
	// Post-storm: a stable ring sink must deliver every span.
	before := ring.Total()
	r.SetSink(func(sr SpanRecord) { ring.Record(sr) })
	for i := 0; i < 100; i++ {
		r.Start("tail").End()
	}
	if got := ring.Total() - before; got != 100 {
		t.Fatalf("stable sink delivered %d spans, want 100", got)
	}
}
