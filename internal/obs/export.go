package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func sortSpans(spans []SpanRecord) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
}

func attrsMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Val
	}
	return m
}

type namedCounter struct {
	name string
	val  int64
}

type namedGauge struct {
	name string
	val  float64
}

type namedHist struct {
	name string
	snap HistSnapshot
}

func (r *Recorder) counterList() []namedCounter {
	var out []namedCounter
	r.counters.Range(func(k, v any) bool {
		out = append(out, namedCounter{k.(string), v.(*Counter).Value()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (r *Recorder) gaugeList() []namedGauge {
	var out []namedGauge
	r.gauges.Range(func(k, v any) bool {
		out = append(out, namedGauge{k.(string), v.(*Gauge).Value()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (r *Recorder) histList() []namedHist {
	var out []namedHist
	r.hists.Range(func(k, v any) bool {
		out = append(out, namedHist{k.(string), v.(*Histogram).Snapshot()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WriteText writes a human-readable run report: a per-phase table
// (spans aggregated by name, sorted by total time) followed by the
// counters, gauges and histograms. A nil recorder writes nothing.
func (r *Recorder) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	spans := r.Spans()
	type agg struct {
		name  string
		count int
		total time.Duration
		cpu   time.Duration
		max   time.Duration
	}
	byName := map[string]*agg{}
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{name: s.Name}
			byName[s.Name] = a
		}
		a.count++
		a.total += s.Dur
		a.cpu += s.CPU
		if s.Dur > a.max {
			a.max = s.Dur
		}
	}
	rows := make([]*agg, 0, len(byName))
	for _, a := range byName {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		return rows[i].name < rows[j].name
	})
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "== obs run report: %d spans, wall %s, cpu %s ==\n",
		len(spans), fmtDur(r.Wall()), fmtDur(r.CPU()))
	if len(rows) > 0 {
		fmt.Fprintf(bw, "%-28s %7s %12s %12s %12s %12s\n",
			"phase", "count", "total", "mean", "max", "cpu")
		for _, a := range rows {
			mean := time.Duration(0)
			if a.count > 0 {
				mean = a.total / time.Duration(a.count)
			}
			fmt.Fprintf(bw, "%-28s %7d %12s %12s %12s %12s\n",
				a.name, a.count, fmtDur(a.total), fmtDur(mean), fmtDur(a.max), fmtDur(a.cpu))
		}
	}
	if cs := r.counterList(); len(cs) > 0 {
		fmt.Fprintln(bw, "counters:")
		for _, c := range cs {
			fmt.Fprintf(bw, "  %-34s %d\n", c.name, c.val)
		}
	}
	if gs := r.gaugeList(); len(gs) > 0 {
		fmt.Fprintln(bw, "gauges:")
		for _, g := range gs {
			fmt.Fprintf(bw, "  %-34s %.4f\n", g.name, g.val)
		}
	}
	if hs := r.histList(); len(hs) > 0 {
		fmt.Fprintln(bw, "histograms:")
		for _, h := range hs {
			fmt.Fprintf(bw, "  %-34s n=%d mean=%.4g min=%.4g max=%.4g\n",
				h.name, h.snap.Count, h.snap.Mean(), h.snap.Min, h.snap.Max)
		}
	}
	return bw.Flush()
}

func fmtDur(d time.Duration) string {
	return d.Truncate(time.Microsecond).String()
}

// jsonlEvent is one line of the JSONL event log.
type jsonlEvent struct {
	Type    string         `json:"type"` // "span", "counter", "gauge", "histogram"
	Name    string         `json:"name"`
	ID      int64          `json:"id,omitempty"`
	Parent  int64          `json:"parent,omitempty"`
	Lane    int            `json:"lane,omitempty"`
	StartUs float64        `json:"start_us,omitempty"`
	DurUs   float64        `json:"dur_us,omitempty"`
	CPUUs   float64        `json:"cpu_us,omitempty"`
	Value   *float64       `json:"value,omitempty"`
	Count   int64          `json:"count,omitempty"`
	Sum     float64        `json:"sum,omitempty"`
	Min     float64        `json:"min,omitempty"`
	Max     float64        `json:"max,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// WriteJSONL writes the machine-readable event log: one JSON object per
// line — every span in start order, then every metric. A nil recorder
// writes nothing.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.Spans() {
		ev := jsonlEvent{
			Type:    "span",
			Name:    s.Name,
			ID:      s.ID,
			Parent:  s.Parent,
			Lane:    s.Lane,
			StartUs: us(s.Start),
			DurUs:   us(s.Dur),
			CPUUs:   us(s.CPU),
			Attrs:   attrsMap(s.Attrs),
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	for _, c := range r.counterList() {
		if err := enc.Encode(jsonlEvent{Type: "counter", Name: c.name, Count: c.val}); err != nil {
			return err
		}
	}
	for _, g := range r.gaugeList() {
		v := g.val
		if err := enc.Encode(jsonlEvent{Type: "gauge", Name: g.name, Value: &v}); err != nil {
			return err
		}
	}
	for _, h := range r.histList() {
		ev := jsonlEvent{Type: "histogram", Name: h.name,
			Count: h.snap.Count, Sum: h.snap.Sum, Min: h.snap.Min, Max: h.snap.Max}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// chromeEvent is one entry of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the span set as Chrome trace_event JSON
// ({"traceEvents": [...]}), loadable in chrome://tracing and Perfetto.
// Each lane becomes a "thread" so parallel implement workers and
// tempering chains render side by side; zero-duration spans become instants. A
// nil recorder writes an empty trace.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	var spans []SpanRecord
	var laneNames map[int]string
	if r != nil {
		spans = r.Spans()
		r.mu.Lock()
		laneNames = make(map[int]string, len(r.laneNames))
		for k, v := range r.laneNames {
			laneNames[k] = v
		}
		r.mu.Unlock()
	}
	return writeChromeTrace(w, spans, laneNames)
}

// writeChromeTrace renders a span list as a trace_event document — the
// shared body of Recorder.WriteChromeTrace and the flight recorder's
// anomaly dumps.
func writeChromeTrace(w io.Writer, spans []SpanRecord, laneNames map[int]string) error {
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: 1,
			Args: map[string]any{"name": "macroflow"}},
	}
	lanes := map[int]bool{}
	for _, s := range spans {
		lanes[s.Lane] = true
	}
	laneList := make([]int, 0, len(lanes))
	for l := range lanes {
		laneList = append(laneList, l)
	}
	sort.Ints(laneList)
	for _, l := range laneList {
		name := laneNames[l]
		if name == "" {
			if l == 0 {
				name = "flow"
			} else {
				name = fmt.Sprintf("lane %d", l)
			}
		}
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: l,
			Args: map[string]any{"name": name}})
	}
	for _, s := range spans {
		args := attrsMap(s.Attrs)
		if args == nil {
			args = map[string]any{}
		}
		args["id"] = s.ID
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		ev := chromeEvent{Name: s.Name, Ts: us(s.Start), Pid: 1, Tid: s.Lane, Args: args}
		if s.Dur > 0 {
			d := us(s.Dur)
			ev.Ph = "X"
			ev.Dur = &d
		} else {
			ev.Ph = "i"
			ev.S = "t" // thread-scoped instant
		}
		events = append(events, ev)
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WriteFile exports the recorder to path, choosing the format from the
// extension: ".jsonl" (or ".ndjson") writes the JSONL event log,
// anything else the Chrome trace JSON. A nil recorder still writes a
// valid (empty) file, so shell pipelines never see a missing artifact.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	ext := strings.ToLower(path)
	if strings.HasSuffix(ext, ".jsonl") || strings.HasSuffix(ext, ".ndjson") {
		err = r.WriteJSONL(f)
	} else {
		err = r.WriteChromeTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
