package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
}

// Service metric names: the registry is the daemon's one ledger, and
// /v1/stats and /metrics both read it. The {label="value"} suffix
// convention is parsed by the Prometheus exporter into real labels, so
// one flat registry carries labeled families.
const (
	mJobs            = "macroflowd.jobs_total"     // {state="done|failed|canceled"}
	mRejected        = "macroflowd.rejected_total" // {reason="queue_full|draining|invalid"}
	mSubmitted       = "macroflowd.submitted_total"
	mJobsEvicted     = "macroflowd.jobs_evicted_total" // finished jobs retention let go
	mSLOBreaches     = "macroflowd.slo_breaches_total"
	mFlightDumps     = "macroflowd.flight_dumps_total"
	mAuditRuns       = "macroflowd.audit_runs_total"
	mAuditChecks     = "macroflowd.audit_checks_total"
	mAuditViolations = "macroflowd.audit_violations_total"
	mJobLatency      = "macroflowd.job_latency_ms"
	mQueueWait       = "macroflowd.queue_wait_ms"    // {priority="N"}
	mStage           = "macroflowd.stage_latency_ms" // {stage="synth|place|mincf|stitch|oracle"}

	// Gauges, sampled at scrape time by refreshGauges (the audit's at
	// each audit).
	mQueueDepth   = "macroflowd.queue_depth"
	mQueuePeak    = "macroflowd.queue_depth_peak"
	mWorkersBusy  = "macroflowd.workers_busy"
	mWorkers      = "macroflowd.workers"
	mDraining     = "macroflowd.draining"
	mUptime       = "macroflowd.uptime_seconds"
	mFlightSpans  = "macroflowd.flight_spans"
	mJobsRetained = "macroflowd.jobs_retained" // queued, running and retained finished jobs
	mAuditLast    = "macroflowd.audit_last_ms" // Unix time of the last audit
)

// stageNames lists the per-stage latency label values /v1/stats reports;
// rejectReasons the rejection reasons its rejected count sums.
var (
	stageNames    = []string{"synth", "place", "mincf", "stitch", "oracle"}
	rejectReasons = []string{"invalid", "queue_full", "draining"}
)

// series names one labeled series of a family.
func series(family, key, value string) string {
	return fmt.Sprintf("%s{%s=%q}", family, key, value)
}

// newTelemetry builds the registry and the flight ring of flightSize
// spans (0 selects the default, negative disables the ring).
func newTelemetry(flightSize int) *telemetry {
	t := &telemetry{rec: macroflow.NewRecorder(), epoch: time.Now()}
	if flightSize == 0 {
		flightSize = obs.DefaultFlightSize
	}
	if flightSize > 0 {
		t.flight = obs.NewFlightRecorder(flightSize)
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
// Every stitcher backend opens stitch.chains exactly once per run, so
// it is the stitch sample: stitch.analytic (a hybrid run's seed, nested
// in it) and the partitioned wrappers stitch.sharded/stitch.shard (one
// run per non-empty member) would count a run twice.
func stageOf(name string) string {
	switch name {
	case "search.mincf", "search.estimate", "search.constant":
		return "mincf"
	case "stitch.chains":
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
			t.rec.BucketHist(series(mStage, "stage", stage), nil).Observe(ms(sr.Dur))
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

// noteDequeued records how long a job sat in the queue, by priority.
func (t *telemetry) noteDequeued(j *job, nowMs int64) {
	j.mu.Lock()
	wait := nowMs - j.submittedMs
	j.mu.Unlock()
	if wait < 0 {
		wait = 0
	}
	t.rec.BucketHist(series(mQueueWait, "priority", strconv.Itoa(j.priority)), nil).
		Observe(float64(wait))
}

// noteFinished records a job's terminal transition: the state counter,
// the submit→finish latency (terminal compile states only — canceled
// jobs never ran), and the anomaly trigger. A job breaches when it
// overran the -slo-ms objective or its oracle audit found violations;
// either snapshots the flight ring to a Chrome trace file named after
// the job, so the evidence survives the ring's wraparound.
func (s *server) noteFinished(j *job, state string, violations int64) {
	t := s.tel
	t.rec.Add(series(mJobs, "state", state), 1)
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
	slo := s.cfg.SLOMs
	if (slo <= 0 || lat <= slo) && violations == 0 {
		return
	}
	t.rec.Add(mSLOBreaches, 1)
	if t.flight == nil {
		return
	}
	path := filepath.Join(s.cfg.FlightDir, "macroflowd-flight-"+j.id+".trace.json")
	if err := t.dumpFlight(path); err != nil {
		s.cfg.Logf("flight dump %s: %v", path, err)
		return
	}
	t.rec.Add(mFlightDumps, 1)
	s.cfg.Logf("job %s anomaly (latency %dms, slo %dms, violations %d): flight recorder dumped to %s",
		j.id, lat, slo, violations, path)
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
// registry, the queue and workers under one lock section — shared by
// GET /metrics and GET /v1/stats.
func (s *server) refreshGauges() {
	s.mu.Lock()
	depth, peak, running, draining, held := s.queue.Len(), s.peak, s.running, s.draining, len(s.jobs)
	s.mu.Unlock()
	t := s.tel
	t.rec.SetGauge(mQueueDepth, float64(depth))
	t.rec.SetGauge(mQueuePeak, float64(peak))
	t.rec.SetGauge(mWorkersBusy, float64(running))
	t.rec.SetGauge(mWorkers, float64(s.cfg.Workers))
	t.rec.SetGauge(mDraining, boolGauge(draining))
	t.rec.SetGauge(mUptime, time.Since(t.epoch).Seconds())
	t.rec.SetGauge(mFlightSpans, float64(t.flight.Len()))
	t.rec.SetGauge(mJobsRetained, float64(held))

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
// everything merged in from finished job recorders.
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

// handleStats serves GET /v1/stats: the service registry as JSON, read
// after one refreshGauges, so every count is the one GET /metrics
// serves — plus the configuration it runs under and the shared block
// cache's own counters.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.refreshGauges()
	rec := s.tel.rec
	gauge := func(name string) float64 { v, _ := rec.GaugeValue(name); return v }
	jobs := func(state string) int64 { return rec.CounterValue(series(mJobs, "state", state)) }
	var rejected int64
	for _, reason := range rejectReasons {
		rejected += rec.CounterValue(series(mRejected, "reason", reason))
	}
	ts := &apiv1.TelemetryStats{
		UptimeMs:       int64(gauge(mUptime) * 1000),
		QueueDepth:     int(gauge(mQueueDepth)),
		QueueDepthPeak: int(gauge(mQueuePeak)),
		WorkersBusy:    int(gauge(mWorkersBusy)),
		SLOMs:          s.cfg.SLOMs,
		SLOBreaches:    rec.CounterValue(mSLOBreaches),
		FlightSpans:    int(gauge(mFlightSpans)),
		FlightDumps:    rec.CounterValue(mFlightDumps),
		JobLatency:     latencySummary(rec.BucketHistValue(mJobLatency)),
		Stages:         map[string]apiv1.LatencySummary{}, // omitted while empty
	}
	for _, stage := range stageNames {
		if snap := rec.BucketHistValue(series(mStage, "stage", stage)); snap.Count > 0 {
			ts.Stages[stage] = latencySummary(snap)
		}
	}
	ph, pm, ps, pn := s.cfg.Cache.PersistentStats()
	writeJSON(w, http.StatusOK, &apiv1.ServerStats{
		Version:             apiv1.Version,
		Device:              s.cfg.Device,
		Workers:             s.cfg.Workers,
		Draining:            gauge(mDraining) != 0,
		Submitted:           rec.CounterValue(mSubmitted),
		Completed:           jobs(apiv1.JobDone),
		Failed:              jobs(apiv1.JobFailed),
		Canceled:            jobs(apiv1.JobCanceled),
		Rejected:            rejected,
		QueueLen:            ts.QueueDepth,
		Running:             ts.WorkersBusy,
		Cache:               s.cfg.Cache.Stats(),
		PersistentHits:      ph,
		PersistentMisses:    pm,
		PersistentStores:    ps,
		PersistentNegatives: pn,
		Audit: apiv1.AuditStats{
			Runs:       rec.CounterValue(mAuditRuns),
			Checks:     rec.CounterValue(mAuditChecks),
			Violations: rec.CounterValue(mAuditViolations),
			LastMs:     int64(gauge(mAuditLast)),
		},
		Telemetry: ts,
	})
}

// latencySummary condenses a histogram (all zero while it is empty).
func latencySummary(s obs.BucketSnapshot) apiv1.LatencySummary {
	return apiv1.LatencySummary{
		Count: s.Count,
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
		Max:   s.Max,
	}
}
