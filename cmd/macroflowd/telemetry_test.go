package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	apiv1 "macroflow/api/v1"
	"macroflow/internal/obs"
)

// promFind returns the first sample matching name and every given
// label key=value pair (supplied as alternating strings).
func promFind(samples []obs.PromSample, name string, kv ...string) (obs.PromSample, bool) {
sample:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if s.Label(kv[i]) != kv[i+1] {
				continue sample
			}
		}
		return s, true
	}
	return obs.PromSample{}, false
}

func scrapeMetrics(t *testing.T, base string) []obs.PromSample {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParsePrometheusText(data)
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v\n%s", err, data)
	}
	return samples
}

// TestMetricsEndpoint compiles one job and scrapes GET /metrics: the
// exposition must parse as strict Prometheus text and carry the
// service series — job/queue counters, worker gauges, stage and job
// latency histograms with quantile companions, and the counters and
// histograms merged from the job's own recorder.
func TestMetricsEndpoint(t *testing.T) {
	s, c := newTestServer(t, serverConfig{Workers: 1})
	s.start()
	defer s.drain()

	final := submitAndWait(t, c, smallReq(1))
	if final.State != apiv1.JobDone {
		t.Fatalf("job state = %s (%v)", final.State, final.Error)
	}
	samples := promFill(t, c.BaseURL)

	mustValue := func(want float64, name string, kv ...string) {
		t.Helper()
		sm, ok := promFind(samples, name, kv...)
		if !ok {
			t.Errorf("series %s %v missing", name, kv)
			return
		}
		if sm.Value != want {
			t.Errorf("%s %v = %g, want %g", name, kv, sm.Value, want)
		}
	}
	mustPresent := func(name string, kv ...string) {
		t.Helper()
		if _, ok := promFind(samples, name, kv...); !ok {
			t.Errorf("series %s %v missing", name, kv)
		}
	}

	mustValue(1, "macroflowd_jobs_total", "state", "done")
	mustValue(1, "macroflowd_submitted_total")
	mustValue(0, "macroflowd_queue_depth")
	mustValue(1, "macroflowd_queue_depth_peak")
	mustValue(1, "macroflowd_workers")
	mustValue(0, "macroflowd_workers_busy")
	mustValue(0, "macroflowd_draining")

	// One job: one latency sample, one queue wait at default priority.
	mustValue(1, "macroflowd_job_latency_ms_count")
	mustValue(1, "macroflowd_job_latency_ms_bucket", "le", "+Inf")
	mustValue(1, "macroflowd_queue_wait_ms_count", "priority", "0")
	for _, q := range []string{"_p50", "_p95", "_p99"} {
		mustPresent("macroflowd_job_latency_ms" + q)
	}

	// Stage latency histograms from the job's span stream.
	for _, stage := range []string{"synth", "place", "mincf", "stitch"} {
		mustPresent("macroflowd_stage_latency_ms_bucket", "stage", stage, "le", "+Inf")
		mustPresent("macroflowd_stage_latency_ms_p95", "stage", stage)
	}

	// Solver health merged from the finished job recorder's histogram:
	// the two blocks were both searched, at least one probe each.
	if sm, ok := promFind(samples, "mincf_probes_per_block_count"); !ok || sm.Value < 2 {
		t.Errorf("mincf_probes_per_block_count = %v %v, want >= 2", sm.Value, ok)
	}

	// Counters merged from the finished job recorder.
	if sm, ok := promFind(samples, "flow_tool_runs"); !ok || sm.Value < 1 {
		t.Errorf("flow_tool_runs = %v %v, want >= 1", sm.Value, ok)
	}

	// The always-on flight ring saw the job's spans.
	if sm, ok := promFind(samples, "macroflowd_flight_spans"); !ok || sm.Value == 0 {
		t.Errorf("flight_spans = %v %v, want > 0", sm.Value, ok)
	}

	// A rejected submission lands in the labeled rejection counter.
	resp, err := http.Post(c.BaseURL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	samples = promFill(t, c.BaseURL)
	mustValue(1, "macroflowd_rejected_total", "reason", "invalid")
}

// promFill scrapes and parses /metrics (named separately from
// scrapeMetrics so test failure lines point at the assertion site).
func promFill(t *testing.T, base string) []obs.PromSample {
	t.Helper()
	return scrapeMetrics(t, base)
}

// chromeTraceDoc is the subset of the trace_event document the tests
// inspect.
type chromeTraceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func decodeTrace(t *testing.T, data []byte) chromeTraceDoc {
	t.Helper()
	var doc chromeTraceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("not a chrome trace document: %v", err)
	}
	return doc
}

// TestFlightRecorderDump drives the anomaly trigger end to end: with a
// 1ms SLO every real job breaches, so finishing a job must dump the
// flight ring to a Chrome trace file named after the job — and the
// on-demand debug endpoint and /v1/stats telemetry block must agree.
func TestFlightRecorderDump(t *testing.T) {
	dir := t.TempDir()
	s, c := newTestServer(t, serverConfig{Workers: 1, SLOMs: 1, FlightDir: dir, FlightSize: 256})
	s.start()
	defer s.drain()

	// A warm 4000-move smallReq can finish inside the 1ms SLO; a larger
	// move budget makes the breach deterministic instead of a timing race.
	req := smallReq(2)
	req.Stitch.Anneal.Iterations = 400000
	final := submitAndWait(t, c, req)
	if final.State != apiv1.JobDone {
		t.Fatalf("job state = %s (%v)", final.State, final.Error)
	}

	path := filepath.Join(dir, "macroflowd-flight-"+final.ID+".trace.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("anomaly dump missing: %v", err)
	}
	doc := decodeTrace(t, data)
	spans, tagged := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X", "i":
			spans++
			if job, _ := ev.Args["job"].(string); job == final.ID {
				tagged++
			}
		case "M":
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if spans == 0 {
		t.Fatal("dump contains no spans")
	}
	if tagged != spans {
		t.Errorf("%d/%d spans tagged with job=%s", tagged, spans, final.ID)
	}

	// The debug endpoint serves the same ring on demand.
	resp, err := http.Get(c.BaseURL + "/v1/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	live, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeTrace(t, live); len(got.TraceEvents) == 0 {
		t.Error("debug endpoint returned an empty trace")
	}

	// /v1/stats surfaces the breach and the dump.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tel := st.Telemetry
	if tel == nil {
		t.Fatal("stats carry no telemetry block")
	}
	if tel.SLOBreaches < 1 || tel.FlightDumps < 1 {
		t.Errorf("breaches=%d dumps=%d, want >= 1 each", tel.SLOBreaches, tel.FlightDumps)
	}
	if tel.SLOMs != 1 {
		t.Errorf("sloMs = %d, want 1", tel.SLOMs)
	}
	if tel.JobLatency.Count != 1 || tel.JobLatency.P50 <= 0 {
		t.Errorf("jobLatency = %+v, want one positive sample", tel.JobLatency)
	}
	if tel.FlightSpans == 0 {
		t.Error("flightSpans = 0, want ring populated")
	}
	if len(tel.Stages) == 0 {
		t.Error("no per-stage latency summaries")
	}
}

// TestFlightRecorderDisabled: a negative FlightSize turns the ring off —
// no dumps even on breach, and the debug endpoint serves an empty trace.
func TestFlightRecorderDisabled(t *testing.T) {
	dir := t.TempDir()
	s, c := newTestServer(t, serverConfig{Workers: 1, SLOMs: 1, FlightDir: dir, FlightSize: -1})
	s.start()
	defer s.drain()

	// Same deterministic-breach budget as TestFlightRecorderDump.
	req := smallReq(3)
	req.Stitch.Anneal.Iterations = 400000
	final := submitAndWait(t, c, req)
	if final.State != apiv1.JobDone {
		t.Fatalf("job state = %s (%v)", final.State, final.Error)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("dump written with the ring disabled: %v", entries)
	}
	resp, err := http.Get(c.BaseURL + "/v1/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeTrace(t, data); len(got.TraceEvents) != 0 {
		// A disabled ring still renders a valid, span-free document
		// (metadata-only events are fine).
		for _, ev := range got.TraceEvents {
			if ev.Ph != "M" {
				t.Errorf("disabled ring served span %q", ev.Name)
			}
		}
	}

	// The SLO trigger still counts breaches without a ring to dump.
	samples := scrapeMetrics(t, c.BaseURL)
	if sm, ok := promFind(samples, "macroflowd_slo_breaches_total"); !ok || sm.Value < 1 {
		t.Errorf("slo_breaches_total = %v %v, want >= 1", sm.Value, ok)
	}
	if _, ok := promFind(samples, "macroflowd_flight_dumps_total"); ok {
		t.Error("flight_dumps_total present with the ring disabled")
	}
}

// TestStageOf pins the span→stage attribution table.
func TestStageOf(t *testing.T) {
	for name, want := range map[string]string{
		"search.mincf":         "mincf",
		"search.estimate":      "mincf",
		"search.constant":      "mincf",
		"stitch.chains":        "stitch",
		"stitch.analytic":      "", // nested in stitch.chains
		"stitch.shard":         "", // wraps one stitch.chains
		"oracle.check":         "oracle",
		"place.quick":          "place",
		"place.detail":         "place",
		"stitch.chain":         "", // child of stitch.chains, already counted
		"stitch.analytic.iter": "",
		"oracle.probe":         "", // search probe, not an audit
		"synth.elaborate":      "synth",
		"synth.optimize":       "synth",
		"flow.compile":         "",
	} {
		if got := stageOf(name); got != want {
			t.Errorf("stageOf(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestStitchStageOneSamplePerRun: the stitch stage takes one latency
// sample per stitcher run — a hybrid job (whose analytic seed is nested
// in its run) adds one, and a K-shard job whose shards all hold
// instances adds K, not the shard wrappers on top.
func TestStitchStageOneSamplePerRun(t *testing.T) {
	s, c := newTestServer(t, serverConfig{Workers: 1})
	s.start()
	defer s.drain()
	samples := func() float64 {
		t.Helper()
		sm, _ := promFind(promFill(t, c.BaseURL), "macroflowd_stage_latency_ms_count", "stage", "stitch")
		return sm.Value
	}

	hybrid := smallReq(1)
	hybrid.Stitch.Backend = "hybrid"
	if final := submitAndWait(t, c, hybrid); final.State != apiv1.JobDone {
		t.Fatalf("hybrid job state = %s (%v)", final.State, final.Error)
	}
	if got := samples(); got != 1 {
		t.Errorf("hybrid job: %g stitch samples, want 1", got)
	}

	// The partitioner fills the lowest member first: twelve BRAM-heavy
	// instances overflow the first shard into the second.
	const shards = 2
	sharded := &apiv1.CompileRequest{
		Design: apiv1.DesignSpec{Blocks: []apiv1.BlockSpec{{Name: "mem", Components: []apiv1.ComponentSpec{
			{Kind: apiv1.CompMemory, Width: 36, Depth: 8192}}}}},
		Stitch:    apiv1.StitchParams{Seed: 2, Anneal: &apiv1.AnnealParams{Iterations: 2000}},
		Partition: &apiv1.PartitionParams{Shards: shards},
	}
	for i := 0; i < 12; i++ {
		sharded.Design.Instances = append(sharded.Design.Instances, apiv1.InstanceSpec{Name: fmt.Sprintf("m%d", i)})
	}
	final := submitAndWait(t, c, sharded)
	if final.State != apiv1.JobDone {
		t.Fatalf("sharded job state = %s (%v)", final.State, final.Error)
	}
	res, err := c.Result(context.Background(), final.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition == nil || len(res.Partition.Members) != shards {
		t.Fatalf("sharded job: partition report %+v, want %d members", res.Partition, shards)
	}
	for _, m := range res.Partition.Members {
		if m.Instances == 0 {
			t.Fatalf("member %s holds no instance; the design must fill every shard", m.Name)
		}
	}
	if got := samples(); got != 1+shards {
		t.Errorf("after the %d-shard job: %g stitch samples, want %d", shards, got, 1+shards)
	}
}

// auditedScrape runs one daemon with the background audit on through
// every ledger entry — a done, a failed and a canceled job, an invalid
// and a queue_full rejection, at least one audit — drains it, so
// nothing moves any more, and returns its /v1/stats and /metrics.
func auditedScrape(t *testing.T) (*apiv1.ServerStats, []obs.PromSample) {
	t.Helper()
	s, c := newTestServer(t, serverConfig{Workers: 1, QueueCap: 2, AuditEvery: 5 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// No workers yet: the queue holds what the test puts in it.
	gone, err := c.Submit(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, gone.ID); err != nil {
		t.Fatal(err)
	}
	done, err := c.Submit(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	// One 512 x 64k memory needs 1,024 BRAM: the compile fails at once.
	hog := &apiv1.CompileRequest{Design: apiv1.DesignSpec{
		Blocks:    []apiv1.BlockSpec{{Name: "hog", Components: []apiv1.ComponentSpec{{Kind: apiv1.CompMemory, Width: 512, Depth: 65536}}}},
		Instances: []apiv1.InstanceSpec{{Name: "hog0", Block: 0}},
	}}
	failed, err := c.Submit(ctx, hog)
	if err != nil {
		t.Fatal(err)
	}
	var ae *apiv1.Error
	if _, err := c.Submit(ctx, smallReq(2)); !errors.As(err, &ae) || ae.Code != apiv1.ErrQueueFull {
		t.Fatalf("third submission = %v, want %s", err, apiv1.ErrQueueFull)
	}
	bad := smallReq(1)
	bad.Stitch.Backend = "bogus"
	if _, err := c.Submit(ctx, bad); !errors.As(err, &ae) || ae.Code != apiv1.ErrInvalidOptions {
		t.Fatalf("bogus backend = %v, want %s", err, apiv1.ErrInvalidOptions)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.QueueLen != 2 || st.Telemetry.QueueDepth != st.QueueLen {
		t.Errorf("queued: queueLen %d, telemetry.queueDepth %d, want 2 and 2", st.QueueLen, st.Telemetry.QueueDepth)
	}

	s.start()
	for id, want := range map[string]string{done.ID: apiv1.JobDone, failed.ID: apiv1.JobFailed} {
		final, err := c.Wait(ctx, id, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != want {
			t.Fatalf("job %s ended %s (%v), want %s", id, final.State, final.Error, want)
		}
	}
	for st.Audit.Runs == 0 {
		time.Sleep(5 * time.Millisecond)
		if st, err = c.Stats(ctx); err != nil {
			t.Fatal(err)
		}
	}
	s.drain() // stops the audit loop
	if st, err = c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	return st, scrapeMetrics(t, c.BaseURL)
}

// TestStatsEqualMetrics: /v1/stats is a view of the registry /metrics
// serves, so every count it reports is the value of its series.
func TestStatsEqualMetrics(t *testing.T) {
	st, samples := auditedScrape(t)
	value := func(name string, kv ...string) float64 {
		sm, _ := promFind(samples, name, kv...) // an absent counter is 0
		return sm.Value
	}
	rejected := 0.0
	for _, sm := range samples {
		if sm.Name == "macroflowd_rejected_total" {
			rejected += sm.Value
		}
	}
	tel := st.Telemetry
	for _, c := range []struct {
		field       string
		stats, prom float64
	}{
		{"submitted", float64(st.Submitted), value("macroflowd_submitted_total")},
		{"completed", float64(st.Completed), value("macroflowd_jobs_total", "state", "done")},
		{"failed", float64(st.Failed), value("macroflowd_jobs_total", "state", "failed")},
		{"canceled", float64(st.Canceled), value("macroflowd_jobs_total", "state", "canceled")},
		{"rejected", float64(st.Rejected), rejected},
		{"queueLen", float64(st.QueueLen), value("macroflowd_queue_depth")},
		{"telemetry.queueDepth", float64(tel.QueueDepth), value("macroflowd_queue_depth")},
		{"telemetry.queueDepthPeak", float64(tel.QueueDepthPeak), value("macroflowd_queue_depth_peak")},
		{"running", float64(st.Running), value("macroflowd_workers_busy")},
		{"telemetry.workersBusy", float64(tel.WorkersBusy), value("macroflowd_workers_busy")},
		{"workers", float64(st.Workers), value("macroflowd_workers")},
		{"draining", boolGauge(st.Draining), value("macroflowd_draining")},
		{"audit.runs", float64(st.Audit.Runs), value("macroflowd_audit_runs_total")},
		{"audit.checks", float64(st.Audit.Checks), value("macroflowd_audit_checks_total")},
		{"audit.violations", float64(st.Audit.Violations), value("macroflowd_audit_violations_total")},
		{"audit.lastMs", float64(st.Audit.LastMs), value("macroflowd_audit_last_ms")},
		{"telemetry.sloBreaches", float64(tel.SLOBreaches), value("macroflowd_slo_breaches_total")},
		{"telemetry.flightSpans", float64(tel.FlightSpans), value("macroflowd_flight_spans")},
		{"telemetry.flightDumps", float64(tel.FlightDumps), value("macroflowd_flight_dumps_total")},
		{"telemetry.jobLatency.count", float64(tel.JobLatency.Count), value("macroflowd_job_latency_ms_count")},
	} {
		if c.stats != c.prom {
			t.Errorf("/v1/stats %s = %g, /metrics = %g", c.field, c.stats, c.prom)
		}
	}
	for stage, sum := range tel.Stages {
		if got := value("macroflowd_stage_latency_ms_count", "stage", stage); float64(sum.Count) != got {
			t.Errorf("/v1/stats stage %s count = %d, /metrics = %g", stage, sum.Count, got)
		}
	}
	if st.Submitted != 3 || st.Completed != 1 || st.Failed != 1 || st.Canceled != 1 || st.Rejected != 2 ||
		tel.QueueDepthPeak != 2 || tel.JobLatency.Count != 2 || !st.Draining {
		t.Errorf("ledger = %+v, telemetry %+v; want 3 submitted, 1 done, 1 failed, 1 canceled, 2 rejected, peak 2, 2 latencies, draining", st, tel)
	}
	if a := st.Audit; a.Runs < 1 || a.Checks <= 0 || a.Violations != 0 || a.LastMs <= 0 {
		t.Errorf("audit = %+v, want runs >= 1, checks > 0, no violations, a last time", a)
	}
	if _, ok := promFind(samples, "macroflowd_audit_violations_total"); !ok {
		t.Error("macroflowd_audit_violations_total is not served at 0")
	}
}

// TestServiceSeriesCatalogued: every macroflowd_* family the daemon
// serves is a row of DESIGN.md §8's service series table.
func TestServiceSeriesCatalogued(t *testing.T) {
	_, samples := auditedScrape(t)
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(design), "The service series")
	if !ok {
		t.Fatal(`DESIGN.md has no "The service series" table`)
	}
	documented := map[string]bool{}
	name := regexp.MustCompile("`([^`]+)`")
	labels := regexp.MustCompile(`\{[^}]*\}`)
	rows := 0
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "|") {
			if rows > 0 {
				break
			}
			continue
		}
		if rows++; rows <= 2 { // header and rule
			continue
		}
		for _, m := range name.FindAllStringSubmatch(strings.Split(line, "|")[1], -1) {
			n := labels.ReplaceAllString(m[1], "")
			if strings.HasPrefix(n, "_") {
				n = "macroflowd" + n
			}
			documented[n] = true
		}
	}
	for _, sm := range samples {
		if !strings.HasPrefix(sm.Name, "macroflowd_") {
			continue
		}
		family := sm.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count", "_p50", "_p95", "_p99"} {
			if b, cut := strings.CutSuffix(family, suffix); cut {
				family = b
				break
			}
		}
		if !documented[family] {
			t.Errorf("the daemon serves %s, which DESIGN.md §8's service series table does not list", family)
			documented[family] = true // once per family
		}
	}
}
