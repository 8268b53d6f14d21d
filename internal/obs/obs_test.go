package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNilRecorderIsNoOp drives every entry point through a nil recorder
// and the nil spans it hands out: nothing may panic, and every read
// returns a zero value.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	sp := r.Start("root", Int("a", 1))
	if sp != nil {
		t.Fatal("nil recorder must hand out nil spans")
	}
	child := sp.Child("child")
	child.Set(Float("cf", 1.5))
	child.WithLane(3).Event("ev")
	child.End()
	sp.End()
	sp.Event("ev", String("k", "v"))
	if sp.LaneVal() != 0 {
		t.Fatal("nil span lane must be 0")
	}
	if got := StartChild(r, nil, "x"); got != nil {
		t.Fatal("StartChild on nil recorder must return nil")
	}
	r.Event("warn")
	r.LaneLabel(1, "lane")
	r.Add("c", 5)
	r.SetGauge("g", 1.0)
	r.Counter("c").Add(1)
	r.Gauge("g").Set(3)
	r.BucketHist("h", nil).Observe(4)
	r.Merge(New())
	New().Merge(r)
	if r.CounterValue("c") != 0 {
		t.Fatal("nil recorder counter must read 0")
	}
	if _, ok := r.GaugeValue("g"); ok {
		t.Fatal("nil recorder gauge must read unset")
	}
	if snap := r.BucketHistValue("h"); snap.Count != 0 {
		t.Fatal("nil recorder histogram must be empty")
	}
	if r.Spans() != nil {
		t.Fatal("nil recorder must have no spans")
	}
	if r.Wall() != 0 || r.CPU() != 0 {
		t.Fatal("nil recorder wall/cpu must be 0")
	}
	if err := r.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestNilRecorderWriteFile: even a nil recorder writes a valid, loadable
// artifact, so shell pipelines never see a missing file.
func TestNilRecorderWriteFile(t *testing.T) {
	var r *Recorder
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("nil-recorder trace is not valid JSON: %v", err)
	}
}

// TestSpanHierarchy checks parent links, lanes and the deterministic
// fake clock.
func TestSpanHierarchy(t *testing.T) {
	r := newWithClock(time.Microsecond)
	root := r.Start("flow")
	child := root.Child("block").WithLane(2)
	grand := child.Child("probe")
	if got := grand.LaneVal(); got != 2 {
		t.Fatalf("child must inherit lane: got %d, want 2", got)
	}
	grand.End()
	child.Set(Float("cf", 1.1))
	child.End()
	root.End()

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["flow"].Parent != 0 {
		t.Fatal("root span must have parent 0")
	}
	if byName["block"].Parent != byName["flow"].ID {
		t.Fatal("block must nest under flow")
	}
	if byName["probe"].Parent != byName["block"].ID {
		t.Fatal("probe must nest under block")
	}
	// Clock calls: flow.start=0, block.start=1µs, probe.start=2µs,
	// probe.end=3µs, block.end=4µs, flow.end=5µs.
	if byName["probe"].Start != 2*time.Microsecond || byName["probe"].Dur != time.Microsecond {
		t.Fatalf("probe timing off: start %v dur %v", byName["probe"].Start, byName["probe"].Dur)
	}
	if byName["flow"].Dur != 5*time.Microsecond {
		t.Fatalf("flow duration off: %v", byName["flow"].Dur)
	}
}

// TestStartChildRecorderMismatch: a parent span from a different
// recorder must not be linked under — the child starts a fresh root on
// the given recorder instead.
func TestStartChildRecorderMismatch(t *testing.T) {
	r1 := newWithClock(time.Microsecond)
	r2 := newWithClock(time.Microsecond)
	parent := r1.Start("implement")
	sp := StartChild(r2, parent, "stitch")
	sp.End()
	parent.End()
	spans := r2.Spans()
	if len(spans) != 1 || spans[0].Parent != 0 {
		t.Fatal("mismatched-recorder parent must yield a root span")
	}
	same := StartChild(r1, parent, "nested")
	same.End()
	for _, s := range r1.Spans() {
		if s.Name == "nested" && s.Parent != parent.id {
			t.Fatal("same-recorder parent must be linked")
		}
	}
}

// TestMetrics exercises the registry accessors.
func TestMetrics(t *testing.T) {
	r := New()
	r.Add("hits", 2)
	r.Add("hits", 3)
	if got := r.CounterValue("hits"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := r.CounterValue("absent"); got != 0 {
		t.Fatalf("absent counter = %d, want 0", got)
	}
	if _, ok := r.GaugeValue("rate"); ok {
		t.Fatal("gauge must start unset")
	}
	r.SetGauge("rate", 0.25)
	if v, ok := r.GaugeValue("rate"); !ok || v != 0.25 {
		t.Fatalf("gauge = %v/%v, want 0.25/true", v, ok)
	}
	r.BucketHist("lat", nil).Observe(1)
	r.BucketHist("lat", nil).Observe(3)
	snap := r.BucketHistValue("lat")
	if snap.Count != 2 || snap.Sum != 4 || snap.Min != 1 || snap.Max != 3 || snap.Mean() != 2 {
		t.Fatalf("histogram snapshot off: %+v", snap)
	}
}

// TestLanesRunsEveryIndexOnce: for any worker count — one, fewer than,
// as many as or more than the items — every index runs exactly once, on
// a lane in [1, workers] that no other goroutine holds at the time, and
// an empty range returns without calling fn. Lanes on a recorder, Lanes
// on a nil recorder and the bare Each run the same loop; only Lanes on a
// recorder labels lanes, and Each runs after it leave its labels as they
// are. Run under -race (scripts/ci.sh does).
func TestLanesRunsEveryIndexOnce(t *testing.T) {
	const n = 37
	rec := New()
	for _, loop := range []struct {
		name string
		run  func(workers, n int, fn func(i, lane int))
	}{
		{"Lanes", func(w, n int, fn func(i, lane int)) { rec.Lanes("test worker", w, n, fn) }},
		{"nil Lanes", func(w, n int, fn func(i, lane int)) { (*Recorder)(nil).Lanes("test worker", w, n, fn) }},
		{"Each", Each},
	} {
		for _, workers := range []int{1, 3, n, n + 5} {
			ran := make([]int, n) // written by index: -race proves no index runs twice at once
			busy := make([]atomic.Bool, workers+1)
			loop.run(workers, n, func(i, lane int) {
				if lane < 1 || lane > workers {
					t.Errorf("%s workers=%d: index %d ran on lane %d", loop.name, workers, i, lane)
					return
				}
				if busy[lane].Swap(true) {
					t.Errorf("%s workers=%d: lane %d ran two indices at once", loop.name, workers, lane)
				}
				ran[i]++
				busy[lane].Store(false)
			})
			for i, c := range ran {
				if c != 1 {
					t.Errorf("%s workers=%d: index %d ran %d times", loop.name, workers, i, c)
				}
			}
		}
		loop.run(4, 0, func(i, lane int) { t.Errorf("%s n=0 called fn(%d, %d)", loop.name, i, lane) })
		// workers < 1 selects GOMAXPROCS: the range still completes.
		var calls atomic.Int64
		loop.run(0, n, func(int, int) { calls.Add(1) })
		if calls.Load() != n {
			t.Errorf("%s workers=0: %d calls, want %d", loop.name, calls.Load(), n)
		}
	}
	if rec.laneNames[1] != "test worker 0" || rec.laneNames[n] != fmt.Sprint("test worker ", n-1) || len(rec.laneNames) != n {
		t.Errorf("lane labels %v: want lanes 1..%d named \"test worker <lane-1>\"", rec.laneNames, n)
	}
}

// TestLanesHandsOutIndicesInOrder: one worker sees 0, 1, 2, ... — the
// order a caller's order[i] indirection relies on — through Lanes and
// through Each.
func TestLanesHandsOutIndicesInOrder(t *testing.T) {
	var lanes, each []int
	New().Lanes("test worker", 1, 5, func(i, _ int) { lanes = append(lanes, i) })
	Each(1, 5, func(i, _ int) { each = append(each, i) })
	if fmt.Sprint(lanes) != "[0 1 2 3 4]" || fmt.Sprint(each) != "[0 1 2 3 4]" {
		t.Errorf("one worker ran Lanes %v, Each %v, want ascending order", lanes, each)
	}
}

// TestConcurrentRecording hammers one recorder from workers×chains
// goroutines — span trees, lane labels and all three metric kinds — and
// checks the totals. Run under -race (scripts/ci.sh does) this is the
// concurrency-safety proof for the hot-path instrumentation.
func TestConcurrentRecording(t *testing.T) {
	const workers, chains, iters = 8, 4, 50
	r := New()
	root := r.Start("flow")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for c := 0; c < chains; c++ {
			wg.Add(1)
			go func(w, c int) {
				defer wg.Done()
				lane := w*chains + c + 1
				r.LaneLabel(lane, fmt.Sprintf("worker %d chain %d", w, c))
				sp := root.Child("chain", Int("worker", w)).WithLane(lane)
				for i := 0; i < iters; i++ {
					p := sp.Child("probe", Int("i", i))
					r.Add("probes", 1)
					r.BucketHist("cf", nil).Observe(float64(i))
					r.SetGauge("last", float64(i))
					p.End()
				}
				sp.Set(Int("done", 1))
				sp.End()
			}(w, c)
		}
	}
	wg.Wait()
	root.End()

	want := workers * chains * iters
	if got := r.CounterValue("probes"); got != int64(want) {
		t.Fatalf("probes counter = %d, want %d", got, want)
	}
	if snap := r.BucketHistValue("cf"); snap.Count != int64(want) {
		t.Fatalf("histogram count = %d, want %d", snap.Count, want)
	}
	spans := r.Spans()
	if got := len(spans); got != want+workers*chains+1 {
		t.Fatalf("span count = %d, want %d", got, want+workers*chains+1)
	}
	// Every probe's parent must be a chain span on the same lane.
	byID := map[int64]SpanRecord{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Name != "probe" {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Name != "chain" || p.Lane != s.Lane {
			t.Fatalf("probe %d badly linked (parent %+v)", s.ID, p)
		}
	}
	// Exporters must hold up against the full concurrent-run state.
	if err := r.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("chrome trace is not valid JSON")
	}
}

// buildGoldenRecorder produces the fixed span tree the Chrome-trace
// golden test snapshots: a flow span, two block implementations on
// separate worker lanes (one with a nested oracle probe), a stitch
// chain lane, and an instant event.
func buildGoldenRecorder() *Recorder {
	r := newWithClock(time.Microsecond)
	r.LaneLabel(1, "implement worker 0")
	r.LaneLabel(1000, "stitch chain 0")
	root := r.Start("flow.compile", Int("types", 2))
	b0 := root.Child("implement.block", String("block", "mvau_0")).WithLane(1)
	probe := b0.Child("oracle.probe", Float("cf", 1.5))
	probe.Set(String("verdict", "feasible"))
	probe.End()
	b0.End()
	b1 := root.Child("implement.block", String("block", "thres_1")).WithLane(2)
	b1.End()
	chain := root.Child("stitch.chain", Int("chain", 0)).WithLane(1000)
	chain.End()
	root.Event("oracle.violation", String("checker", "cost"))
	root.End()
	return r
}

// TestChromeTraceGolden pins the exact Chrome trace_event serialization
// (deterministic via the fake clock). Regenerate the golden with
// UPDATE_GOLDEN=1 go test ./internal/obs/ -run TestChromeTraceGolden.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildGoldenRecorder().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestChromeTraceStructure validates the trace as a Chrome/Perfetto
// consumer would: JSON-parseable, required metadata present, complete
// events carry ts/dur, and the id/parent args encode a span tree at
// least three levels deep (flow → block implement → oracle probe).
func TestChromeTraceStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := buildGoldenRecorder().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	threadNames := map[int]string{}
	spans := map[int64]struct {
		name   string
		parent int64
	}{}
	sawProcessName, sawInstant := false, false
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				sawProcessName = true
			case "thread_name":
				threadNames[ev.Tid] = ev.Args["name"].(string)
			}
		case "X":
			if ev.Dur == nil {
				t.Fatalf("complete event %q lacks dur", ev.Name)
			}
			id := int64(ev.Args["id"].(float64))
			var parent int64
			if p, ok := ev.Args["parent"]; ok {
				parent = int64(p.(float64))
			}
			spans[id] = struct {
				name   string
				parent int64
			}{ev.Name, parent}
		case "i":
			if ev.S != "t" {
				t.Fatalf("instant %q lacks thread scope", ev.Name)
			}
			sawInstant = true
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if !sawProcessName {
		t.Fatal("missing process_name metadata")
	}
	if !sawInstant {
		t.Fatal("missing instant event")
	}
	for _, tid := range []int{0, 1, 2, 1000} {
		if _, ok := threadNames[tid]; !ok {
			t.Fatalf("lane %d unnamed; got %v", tid, threadNames)
		}
	}
	if threadNames[0] != "flow" || threadNames[1] != "implement worker 0" ||
		!strings.HasPrefix(threadNames[2], "lane") || threadNames[1000] != "stitch chain 0" {
		t.Fatalf("lane names off: %v", threadNames)
	}
	// Walk up from the probe: probe → block → flow is ≥ 3 levels.
	depth := func(id int64) int {
		d := 0
		for id != 0 {
			d++
			id = spans[id].parent
		}
		return d
	}
	maxDepth := 0
	for id, s := range spans {
		if s.name == "oracle.probe" {
			if d := depth(id); d > maxDepth {
				maxDepth = d
			}
		}
	}
	if maxDepth < 3 {
		t.Fatalf("span nesting depth = %d, want >= 3", maxDepth)
	}
}

// TestWriteJSONL checks the event-log export round-trips as one JSON
// object per line with spans before metrics.
func TestWriteJSONL(t *testing.T) {
	r := buildGoldenRecorder()
	r.Add("mincf.oracle_runs", 7)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	sawCounter := false
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v", i+1, err)
		}
		if ev["type"] == "counter" {
			sawCounter = true
		} else if sawCounter {
			t.Fatal("spans must precede metrics")
		}
	}
	if !sawCounter {
		t.Fatal("counter line missing")
	}
}

// TestWriteFileFormats checks extension-based format dispatch.
func TestWriteFileFormats(t *testing.T) {
	r := buildGoldenRecorder()
	dir := t.TempDir()
	chrome := filepath.Join(dir, "t.json")
	jsonl := filepath.Join(dir, "t.jsonl")
	if err := r.WriteFile(chrome); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteFile(jsonl); err != nil {
		t.Fatal(err)
	}
	cb, _ := os.ReadFile(chrome)
	if !bytes.Contains(cb, []byte("traceEvents")) {
		t.Fatal(".json must be a Chrome trace")
	}
	jb, _ := os.ReadFile(jsonl)
	first := strings.SplitN(string(jb), "\n", 2)[0]
	if !json.Valid([]byte(first)) || strings.Contains(first, "traceEvents") {
		t.Fatal(".jsonl must be line-oriented events")
	}
}

// TestTextReport sanity-checks the human summary.
func TestTextReport(t *testing.T) {
	r := buildGoldenRecorder()
	r.Add("flow.tool_runs", 3)
	r.SetGauge("stitch.accept_rate", 0.5)
	r.BucketHist("probe.ms", nil).Observe(2)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"obs run report", "implement.block", "flow.tool_runs", "stitch.accept_rate", "probe.ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}
}

// TestSetSink: the span→event bridge must deliver every finished span
// and instant event to the sink synchronously (before End/Event
// returns), with the same records Spans() stores, and survive a nil
// receiver or a nil sink.
func TestSetSink(t *testing.T) {
	r := New()
	var got []SpanRecord
	r.SetSink(func(sr SpanRecord) { got = append(got, sr) })

	sp := r.Start("outer", String("k", "v"))
	r.Event("instant", Int("n", 3))
	if len(got) != 1 {
		t.Fatalf("sink saw %d records after Event, want 1 (synchronous delivery)", len(got))
	}
	if got[0].Name != "instant" || got[0].Dur != 0 {
		t.Errorf("instant record = %+v, want zero-duration 'instant'", got[0])
	}
	sp.End()
	if len(got) != 2 {
		t.Fatalf("sink saw %d records after End, want 2", len(got))
	}
	if got[1].Name != "outer" {
		t.Errorf("span record name = %q, want outer", got[1].Name)
	}
	// The sink stream and the stored spans are the same records — the
	// sink sees completion order, Spans() start order, so match by ID.
	spans := r.Spans()
	if len(spans) != len(got) {
		t.Fatalf("Spans() has %d records, sink saw %d", len(spans), len(got))
	}
	byID := map[int64]SpanRecord{}
	for _, sr := range spans {
		byID[sr.ID] = sr
	}
	for _, sr := range got {
		if stored, ok := byID[sr.ID]; !ok || stored.Name != sr.Name || stored.Dur != sr.Dur {
			t.Errorf("sink record %+v has no matching stored span", sr)
		}
	}

	// Clearing the sink stops delivery without touching recording.
	r.SetSink(nil)
	r.Event("after-clear")
	if len(got) != 2 {
		t.Errorf("cleared sink still saw records (%d)", len(got))
	}
	if len(r.Spans()) != 3 {
		t.Errorf("recording stopped with the sink: %d spans stored", len(r.Spans()))
	}

	// Nil recorders ignore SetSink like every other method.
	var nilRec *Recorder
	nilRec.SetSink(func(SpanRecord) { t.Error("nil recorder delivered a record") })
	nilRec.Event("nope")
}

// TestSetSinkConcurrent: sink delivery under concurrent span traffic
// must not race (the sink itself is called outside the recorder lock,
// so the callback serializes its own state).
func TestSetSinkConcurrent(t *testing.T) {
	r := New()
	var mu sync.Mutex
	seen := 0
	r.SetSink(func(SpanRecord) {
		mu.Lock()
		seen++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	const n = 8
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.Start("w").End()
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if seen != n*50 {
		t.Errorf("sink saw %d records, want %d", seen, n*50)
	}
}
