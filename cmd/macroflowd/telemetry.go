package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"macroflow"
	apiv1 "macroflow/api/v1"
	"macroflow/internal/obs"
)

// telemetry is the daemon's always-on service telemetry plane: one
// process-lifetime obs recorder holding the service metric registry
// (exported as Prometheus text on GET /metrics), and the flight
// recorder — a bounded ring of every completed span across all jobs
// that an anomaly (SLO breach or oracle violation) dumps to a Chrome
// trace file, so the moments before a bad job are always on disk.
//
// Telemetry observes jobs through the same per-job recorder sink the
// event feed uses; it never feeds anything back into a flow, so
// compile results stay bit-identical with every knob enabled.
type telemetry struct {
	rec    *macroflow.Recorder
	flight *obs.FlightRecorder
	epoch  time.Time

	sloMs     int64
	flightDir string
	logf      func(format string, args ...any)

	queuePeak atomic.Int64
}

// Service metric names. The {label="value"} suffix convention is
// parsed by the Prometheus exporter into real labels, so one flat
// registry carries labeled families.
const (
	mJobs        = "macroflowd.jobs_total"     // {state="done|failed|canceled"}
	mRejected    = "macroflowd.rejected_total" // {reason="queue_full|draining|invalid"}
	mSubmitted   = "macroflowd.submitted_total"
	mSLOBreaches = "macroflowd.slo_breaches_total"
	mFlightDumps = "macroflowd.flight_dumps_total"
	mJobLatency  = "macroflowd.job_latency_ms"
	mQueueWait   = "macroflowd.queue_wait_ms"    // {priority="N"}
	mStage       = "macroflowd.stage_latency_ms" // {stage="synth|place|mincf|stitch|oracle"}
	mProbes      = "macroflowd.probes_per_block" // tool runs per searched block
)

// stageNames lists the per-stage latency label values /v1/stats reports.
var stageNames = []string{"synth", "place", "mincf", "stitch", "oracle"}

func newTelemetry(cfg serverConfig) *telemetry {
	t := &telemetry{
		rec:       macroflow.NewRecorder(),
		epoch:     time.Now(),
		sloMs:     cfg.SLOMs,
		flightDir: cfg.FlightDir,
		logf:      cfg.Logf,
	}
	if t.flightDir == "" {
		t.flightDir = "."
	}
	size := cfg.FlightSize
	if size == 0 {
		size = obs.DefaultFlightSize
	}
	if size > 0 {
		t.flight = obs.NewFlightRecorder(size)
	}
	return t
}

// stageOf maps a span name onto its flow stage for latency attribution.
// Only the per-phase parent spans count — their fine-grained children
// (probe attempts, anneal rounds) are already inside the parent's
// duration. The synth and place families are the exception: their
// spans never nest within each other (synth.elaborate and
// synth.optimize are siblings, for every design; each
// place.quick/place.detail IS one attempt), so every one is a sample.
// Partitioned runs sample each stitch.shard (one anneal per fabric
// member) and skip the stitch.sharded parent, which only fans out and
// reduces.
func stageOf(name string) string {
	switch name {
	case "search.mincf", "search.estimate", "search.constant":
		return "mincf"
	case "stitch.chains", "stitch.analytic", "stitch.shard":
		return "stitch"
	case "oracle.check":
		return "oracle"
	}
	switch {
	case strings.HasPrefix(name, "synth."):
		return "synth"
	case strings.HasPrefix(name, "place."):
		return "place"
	}
	return ""
}

// ms renders a duration as float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// jobSink composes the telemetry tap with the job's event bridge: every
// completed span of a job's recorder feeds the per-stage latency
// histograms and the flight ring, then streams onto the job's event
// feed. base rebases the per-job recorder's epoch-relative span starts
// onto the service epoch, so spans from different jobs form one
// timeline in flight dumps.
func (t *telemetry) jobSink(jobID string, base time.Duration, inner func(obs.SpanRecord)) func(obs.SpanRecord) {
	return func(sr obs.SpanRecord) {
		if stage := stageOf(sr.Name); stage != "" {
			t.rec.BucketHist(fmt.Sprintf("%s{stage=%q}", mStage, stage), nil).Observe(ms(sr.Dur))
		}
		if sr.Name == "search.mincf" || sr.Name == "search.estimate" {
			if runs, ok := attrInt(sr.Attrs, "tool_runs"); ok && runs > 0 {
				t.rec.BucketHist(mProbes, nil).Observe(float64(runs))
			}
		}
		if t.flight != nil {
			fr := sr
			fr.Start += base
			fr.Attrs = append(append([]obs.Attr(nil), sr.Attrs...), obs.String("job", jobID))
			t.flight.Record(fr)
		}
		inner(sr)
	}
}

func attrInt(attrs []obs.Attr, key string) (int64, bool) {
	for _, a := range attrs {
		if a.Key != key {
			continue
		}
		switch v := a.Val.(type) {
		case int64:
			return v, true
		case int:
			return int64(v), true
		}
	}
	return 0, false
}

// absorb folds one finished job recorder's counters and gauges into the
// service registry: cache and singleflight counters accumulate, solver
// health gauges (stitch.analytic.grad_norm, …) show the latest job's
// final state. Histograms are not mergeable across recorders and are
// instead sampled live by jobSink.
func (t *telemetry) absorb(rec *macroflow.Recorder) {
	rec.EachCounter(func(name string, v int64) { t.rec.Add(name, v) })
	rec.EachGauge(func(name string, v float64) { t.rec.SetGauge(name, v) })
}

// noteQueued records a submission and the queue's high-water mark.
func (t *telemetry) noteQueued(depth int) {
	t.rec.Add(mSubmitted, 1)
	for {
		peak := t.queuePeak.Load()
		if int64(depth) <= peak || t.queuePeak.CompareAndSwap(peak, int64(depth)) {
			return
		}
	}
}

// noteDequeued records how long a job sat in the queue, by priority.
func (t *telemetry) noteDequeued(j *job, nowMs int64) {
	j.mu.Lock()
	wait := nowMs - j.submittedMs
	j.mu.Unlock()
	if wait < 0 {
		wait = 0
	}
	t.rec.BucketHist(fmt.Sprintf("%s{priority=%q}", mQueueWait, strconv.Itoa(j.priority)), nil).
		Observe(float64(wait))
}

// noteRejected counts one refused submission by reason.
func (t *telemetry) noteRejected(reason string) {
	t.rec.Add(fmt.Sprintf("%s{reason=%q}", mRejected, reason), 1)
}

// noteFinished records a job's terminal transition: the state counter,
// the submit→finish latency (terminal compile states only — canceled
// jobs never ran), and the anomaly trigger. A job breaches when it
// overran the -slo-ms objective or its oracle audit found violations;
// either snapshots the flight ring to a Chrome trace file named after
// the job, so the evidence survives the ring's wraparound.
func (t *telemetry) noteFinished(j *job, state string, violations int64) {
	t.rec.Add(fmt.Sprintf("%s{state=%q}", mJobs, state), 1)
	if state == apiv1.JobCanceled {
		return
	}
	// Latency is measured against the clock here, not j.finishedMs:
	// this runs just before the terminal state flip, so the dump file
	// already exists when a poller first observes the job as finished.
	j.mu.Lock()
	lat := time.Now().UnixMilli() - j.submittedMs
	j.mu.Unlock()
	if lat < 0 {
		lat = 0
	}
	t.rec.BucketHist(mJobLatency, nil).Observe(float64(lat))
	breach := t.sloMs > 0 && lat > t.sloMs
	if violations > 0 {
		breach = true
	}
	if !breach {
		return
	}
	t.rec.Add(mSLOBreaches, 1)
	if t.flight == nil {
		return
	}
	path := filepath.Join(t.flightDir, "macroflowd-flight-"+j.id+".trace.json")
	if err := t.dumpFlight(path); err != nil {
		t.logf("flight dump %s: %v", path, err)
		return
	}
	t.rec.Add(mFlightDumps, 1)
	t.logf("job %s anomaly (latency %dms, slo %dms, violations %d): flight recorder dumped to %s",
		j.id, lat, t.sloMs, violations, path)
}

func (t *telemetry) dumpFlight(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.flight.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// refreshGauges samples the scrape-time service state into the gauge
// registry — shared by GET /metrics and the /v1/stats telemetry block.
func (s *server) refreshGauges() {
	s.mu.Lock()
	depth, running, draining := s.queue.Len(), s.running, s.draining
	s.mu.Unlock()
	t := s.tel
	t.rec.SetGauge("macroflowd.queue_depth", float64(depth))
	t.rec.SetGauge("macroflowd.queue_depth_peak", float64(t.queuePeak.Load()))
	t.rec.SetGauge("macroflowd.workers_busy", float64(running))
	t.rec.SetGauge("macroflowd.workers", float64(s.cfg.Workers))
	t.rec.SetGauge("macroflowd.draining", boolGauge(draining))
	t.rec.SetGauge("macroflowd.uptime_seconds", time.Since(t.epoch).Seconds())
	t.rec.SetGauge("macroflowd.flight_spans", float64(t.flight.Len()))

	cs := s.cfg.Cache.Stats()
	hits := cs.MemHits + cs.DiskHits
	if lookups := hits + cs.Misses; lookups > 0 {
		t.rec.SetGauge("macroflowd.implcache_hit_ratio", float64(hits)/float64(lookups))
	}
	if total := hits + cs.SingleflightHits + cs.Misses; total > 0 {
		t.rec.SetGauge("macroflowd.singleflight_hit_ratio",
			float64(cs.SingleflightHits)/float64(total))
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// handleMetrics serves the service registry as Prometheus text
// exposition (format 0.0.4): counters, gauges, the per-stage and
// per-job latency histograms with their _p50/_p95/_p99 companions, and
// everything absorbed from finished job recorders.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.refreshGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.tel.rec.WritePrometheus(w); err != nil {
		s.cfg.Logf("metrics: %v", err)
	}
}

// handleFlightDump serves the flight recorder's current ring as a
// Chrome trace_event document — the on-demand counterpart of the
// anomaly-triggered file dumps (an empty trace when the ring is off).
func (s *server) handleFlightDump(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.tel.flight.WriteChromeTrace(w); err != nil {
		s.cfg.Logf("flight recorder dump: %v", err)
	}
}

// telemetryStats condenses the service registry for GET /v1/stats.
func (s *server) telemetryStats() *apiv1.TelemetryStats {
	s.refreshGauges()
	t := s.tel
	s.mu.Lock()
	depth, running := s.queue.Len(), s.running
	s.mu.Unlock()
	ts := &apiv1.TelemetryStats{
		UptimeMs:       time.Since(t.epoch).Milliseconds(),
		QueueDepth:     depth,
		QueueDepthPeak: int(t.queuePeak.Load()),
		WorkersBusy:    running,
		SLOMs:          t.sloMs,
		SLOBreaches:    t.rec.CounterValue(mSLOBreaches),
		FlightSpans:    t.flight.Len(),
		FlightDumps:    t.rec.CounterValue(mFlightDumps),
		JobLatency:     latencySummary(t.rec.BucketHistValue(mJobLatency)),
	}
	for _, stage := range stageNames {
		snap := t.rec.BucketHistValue(fmt.Sprintf("%s{stage=%q}", mStage, stage))
		if snap.Count == 0 {
			continue
		}
		if ts.Stages == nil {
			ts.Stages = make(map[string]apiv1.LatencySummary, len(stageNames))
		}
		ts.Stages[stage] = latencySummary(snap)
	}
	return ts
}

func latencySummary(s obs.BucketSnapshot) apiv1.LatencySummary {
	if s.Count == 0 {
		return apiv1.LatencySummary{}
	}
	return apiv1.LatencySummary{
		Count: s.Count,
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
		Max:   s.Max,
	}
}
