package main

import (
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"macroflow"
	apiv1 "macroflow/api/v1"
	"macroflow/internal/obs"
)

// serverConfig wires a server's shared warm state.
type serverConfig struct {
	Device     string
	Workers    int
	QueueCap   int
	Cache      *macroflow.BlockCache
	Estimator  *macroflow.Estimator
	AuditEvery time.Duration
	// FlightSize is the flight recorder's span ring capacity: 0 selects
	// the default (always-on), negative disables the ring.
	FlightSize int
	// SLOMs is the per-job submit→finish latency objective in
	// milliseconds; a breach dumps the flight ring (0 = no objective).
	SLOMs int64
	// FlightDir is where anomaly trace dumps land ("" = cwd).
	FlightDir string
	// Logf defaults to log.Printf; tests silence it.
	Logf func(format string, args ...any)
}

// server is the compile service: a bounded priority queue of jobs
// drained by N worker sessions that share one block cache (and its
// persistent implcache layer) and one loaded estimator.
type server struct {
	cfg serverConfig
	tel *telemetry

	mu    sync.Mutex
	cond  *sync.Cond // queue activity, job completion, drain
	queue jobHeap
	peak  int // the queue's high-water mark
	jobs  map[string]*job
	seq   int64
	// retired is a ring of the ids of the last retainFinished × QueueCap
	// finished jobs: a job that finishes takes the slot of the one that
	// finished that many jobs before it, and that job leaves jobs.
	retired  []string
	nRetired int
	running  int
	draining bool
	drainCh  chan struct{}

	wg sync.WaitGroup
}

func newServer(cfg serverConfig) *server {
	if cfg.Device == "" {
		cfg.Device = "xc7z020"
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.Cache == nil {
		cfg.Cache = macroflow.NewBlockCache()
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	s := &server{
		cfg:     cfg,
		jobs:    make(map[string]*job),
		retired: make([]string, retainFinished*cfg.QueueCap),
		drainCh: make(chan struct{}),
	}
	s.tel = newTelemetry(cfg.FlightSize)
	s.tel.rec.Add(mJobsEvicted, 0) // served from the start
	s.cond = sync.NewCond(&s.mu)
	return s
}

// start launches the worker sessions and, when configured, the
// background audit loop.
func (s *server) start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.cfg.AuditEvery > 0 {
		s.wg.Add(1)
		go s.auditLoop()
	}
}

// drain stops admission, lets the workers finish every accepted job
// (queued and running alike — drain never discards work), then flushes
// the persistent cache's lifetime stats. It returns once the server is
// fully idle.
func (s *server) drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if err := s.cfg.Cache.FlushStats(); err != nil {
		s.cfg.Logf("cache stats flush: %v", err)
	}
}

// retainFinished × QueueCap finished jobs stay readable: a finished
// job's status, result and events are served until that many later jobs
// have finished, and its id answers the typed gone from then on.
const retainFinished = 4

// job is one submitted compile.
type job struct {
	id       string
	seq      int64
	priority int
	plan     *plan // nil once the job ran or was canceled
	index    int   // heap index; -1 once popped or canceled

	mu          sync.Mutex
	cond        *sync.Cond
	state       string
	submittedMs int64
	startedMs   int64
	finishedMs  int64
	events      eventLog
	result      []byte // server-encoded wire result (exact response bytes)
	jerr        *apiv1.Error
}

// emit appends to the job's event feed and wakes its streamers.
func (j *job) emit(add func(*eventLog)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	add(&j.events)
	j.cond.Broadcast()
}

// setState transitions the job and emits the matching state event.
func (j *job) setState(state string) {
	now := time.Now().UnixMilli()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	switch state {
	case apiv1.JobRunning:
		j.startedMs = now
	case apiv1.JobDone, apiv1.JobFailed, apiv1.JobCanceled:
		j.finishedMs = now
	}
	j.events.addState(state, now)
	j.cond.Broadcast()
}

func (j *job) terminal() bool {
	switch j.state {
	case apiv1.JobDone, apiv1.JobFailed, apiv1.JobCanceled:
		return true
	}
	return false
}

// status snapshots the job's public state; queuePos is supplied by the
// server (only meaningful while queued).
func (j *job) status(queuePos int) *apiv1.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return &apiv1.JobStatus{
		ID:          j.id,
		State:       j.state,
		Priority:    j.priority,
		QueuePos:    queuePos,
		SubmittedMs: j.submittedMs,
		StartedMs:   j.startedMs,
		FinishedMs:  j.finishedMs,
		Error:       j.jerr,
	}
}

// jobHeap orders queued jobs by (priority desc, submission seq asc).
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(a, b int) bool {
	if h[a].priority != h[b].priority {
		return h[a].priority > h[b].priority
	}
	return h[a].seq < h[b].seq
}
func (h jobHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].index = a
	h[b].index = b
}
func (h *jobHeap) Push(x any) {
	j := x.(*job)
	j.index = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	j := old[len(old)-1]
	old[len(old)-1] = nil
	j.index = -1
	*h = old[:len(old)-1]
	return j
}

// ahead counts the queued jobs that would start before j.
func (h jobHeap) ahead(j *job) int {
	n := 0
	for _, q := range h {
		if q == j {
			continue
		}
		if q.priority > j.priority || (q.priority == j.priority && q.seq < j.seq) {
			n++
		}
	}
	return n
}

// worker is one compile session: it claims queued jobs until the queue
// is empty and the server is draining.
func (s *server) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.run(j)
	}
}

func (s *server) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.queue.Len() > 0 {
			j := heap.Pop(&s.queue).(*job)
			s.running++
			return j
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

func (s *server) run(j *job) {
	s.tel.noteDequeued(j, time.Now().UnixMilli())
	j.setState(apiv1.JobRunning)

	// Per-job recorder with the span→event bridge: every finished obs
	// span streams onto the job's JSONL feed the moment it ends. The
	// telemetry plane taps the same sink — stage latency histograms and
	// the flight ring see each span first, rebased onto the service
	// epoch so cross-job dumps form one timeline.
	rec := macroflow.NewRecorder()
	base := time.Since(s.tel.epoch)
	rec.SetSink(s.tel.jobSink(j.id, base, func(sr obs.SpanRecord) {
		now := time.Now().UnixMilli()
		j.emit(func(l *eventLog) { l.addSpan(sr, now) })
	}))
	progress := func(chain, iter int, cost float64) {
		now := time.Now().UnixMilli()
		j.emit(func(l *eventLog) { l.addProgress(chain, iter, cost, now) })
	}

	p := j.plan
	j.plan = nil // a finished job keeps its result, not its flow
	raw, jerr := s.compile(p, rec, progress)

	j.mu.Lock()
	j.result = raw
	j.jerr = jerr
	j.mu.Unlock()
	s.mu.Lock()
	s.running--
	s.cond.Broadcast()
	s.mu.Unlock()
	state := apiv1.JobDone
	if jerr != nil {
		s.cfg.Logf("job %s failed: %s", j.id, jerr.Message)
		state = apiv1.JobFailed
	}
	// Fold the job recorder's registry into the service registry —
	// cache and singleflight counters accumulate, solver-health gauges
	// (stitch.analytic.grad_norm, …) show the latest job's final state,
	// histograms (mincf.probes_per_block, estimator.abs_err) add bucket
	// by bucket — then run the anomaly trigger: an SLO overrun or an
	// oracle violation snapshots the flight ring to disk. This runs
	// before the state flip — the terminal state is the signal clients
	// poll on, so the dump file must exist by the time they see it.
	s.tel.rec.Merge(rec)
	s.noteFinished(j, state, rec.CounterValue("oracle.violations"))
	j.setState(state)
	s.retire(j)
}

// retire books a job that reached a terminal state into the retention
// ring. The job it displaces, finished retainFinished × QueueCap jobs
// earlier, leaves s.jobs, and with it its result bytes and event feed.
func (s *server) retire(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := &s.retired[s.nRetired%len(s.retired)]
	if *slot != "" {
		delete(s.jobs, *slot)
		s.tel.rec.Add(mJobsEvicted, 1)
	}
	*slot = j.id
	s.nRetired++
}

// plan is an admitted request, converted once: the flow configured
// with device, search window and strategy, the CF mode, the options and
// the custom design (nil for the builtin cnvW1A1) with its instance
// counts. The worker attaches the recorder, the progress callback and
// the shared cache, and runs it.
type plan struct {
	flow      *macroflow.Flow
	mode      macroflow.CFMode
	opts      macroflow.CompileOptions
	design    *macroflow.Design
	instances []int
}

// admit validates a submission end to end — wire shape, then the same
// CFMode / StitchOptions / ImplementOptions / PartitionOptions Validate
// the CLI path runs — and converts it into the job's plan, so a bad request is
// rejected at admission in microseconds with the library's own
// messages.
func (s *server) admit(req *apiv1.CompileRequest) (*plan, *apiv1.Error) {
	if err := req.Validate(); err != nil {
		return nil, asAPIError(err)
	}
	mode, aerr := s.mode(req)
	if aerr != nil {
		return nil, aerr
	}
	so, serr := req.Stitch.Options()
	im, ierr := req.Implement.Options()
	po := req.Partition.Options()
	// A failed conversion yields zero options, which validate: the
	// first error in this order is the one a request reports.
	for _, err := range []error{mode.Validate(), serr, so.Validate(), ierr, im.Validate(), po.Validate()} {
		if err != nil {
			return nil, asAPIError(err)
		}
	}
	device := req.Device
	if device == "" {
		device = s.cfg.Device
	}
	flow, err := macroflow.NewFlow(device)
	if err != nil {
		return nil, asAPIError(err)
	}
	p := &plan{flow: flow, mode: mode, opts: macroflow.CompileOptions{
		Stitch: so, Implement: im, Partition: po, SkipStitch: req.SkipStitch}}
	if req.Design.Builtin != "" {
		// The builtin cnvW1A1 flow defaults to the paper's search window.
		flow.SetSearch(0.5, 0.02, 3.0)
	} else {
		if p.design, err = req.Design.BuildDesign(); err != nil {
			return nil, asAPIError(err)
		}
		p.instances = req.Design.InstanceCounts()
	}
	if w := req.Search; w != nil {
		flow.SetSearch(w.Start, w.Step, w.Max)
	}
	switch req.Implement.Strategy {
	case "linear":
		flow.SetSearchStrategy(macroflow.SearchLinear)
	case "bisect":
		flow.SetSearchStrategy(macroflow.SearchBisect)
	}
	return p, nil
}

// mode converts a mode spelling req.Validate accepted into a CFMode.
func (s *server) mode(req *apiv1.CompileRequest) (macroflow.CFMode, *apiv1.Error) {
	switch req.Mode.Kind {
	case "constant":
		return macroflow.ConstantCF(req.Mode.CF), nil
	case "estimator":
		if s.cfg.Estimator == nil {
			return macroflow.CFMode{}, &apiv1.Error{Code: apiv1.ErrUnsupported,
				Message: "estimator mode needs an estimator loaded into the server (-estimator)"}
		}
		return macroflow.EstimatorCF(s.cfg.Estimator), nil
	}
	return macroflow.MinSweepCF(), nil
}

// compile runs an admitted plan against the shared warm state. The
// result is encoded once, here, so every GET of it returns the exact
// same bytes.
func (s *server) compile(p *plan, rec *macroflow.Recorder, progress func(int, int, float64)) ([]byte, *apiv1.Error) {
	opts := p.opts
	opts.Stitch.Obs, opts.Stitch.Progress = rec, progress
	opts.Implement.Obs, opts.Implement.Cache = rec, s.cfg.Cache
	var wire *apiv1.CompileResult
	if p.design == nil {
		res, err := p.flow.RunCNV(p.mode, opts)
		if err != nil {
			return nil, &apiv1.Error{Code: apiv1.ErrInternal, Message: err.Error()}
		}
		wire = apiv1.ResultFromCNV(res, opts.SkipStitch)
	} else {
		res, err := p.flow.Compile(p.design, p.mode, opts)
		if err != nil {
			return nil, &apiv1.Error{Code: apiv1.ErrInternal, Message: err.Error()}
		}
		wire = apiv1.ResultFromCompile(res, opts.SkipStitch)
		wire.Instances = p.instances
	}
	raw, err := json.Marshal(wire)
	if err != nil {
		return nil, &apiv1.Error{Code: apiv1.ErrInternal, Message: err.Error()}
	}
	return raw, nil
}

func asAPIError(err error) *apiv1.Error {
	if ae, ok := err.(*apiv1.Error); ok {
		return ae
	}
	return &apiv1.Error{Code: apiv1.ErrInvalidOptions, Message: err.Error()}
}

// auditLoop continuously cross-checks the live service against the
// brute-force oracle: every AuditEvery it compiles a small fixed design
// through the shared cache with -check sampled, so cache corruption or
// flow regressions surface as violations while the daemon runs.
func (s *server) auditLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.AuditEvery)
	defer t.Stop()
	for {
		select {
		case <-s.drainCh:
			return
		case <-t.C:
			s.runAudit()
		}
	}
}

func (s *server) runAudit() {
	flow, err := macroflow.NewFlow(s.cfg.Device)
	if err != nil {
		s.cfg.Logf("audit: %v", err)
		return
	}
	rec := s.tel.rec
	res, err := flow.Compile(auditDesign(), macroflow.MinSweepCF(), macroflow.CompileOptions{
		Stitch:    macroflow.StitchOptions{Seed: rec.CounterValue(mAuditRuns) + 1, Anneal: macroflow.AnnealOptions{Iterations: 2000}, Check: macroflow.CheckSampled},
		Implement: macroflow.ImplementOptions{Cache: s.cfg.Cache, Check: macroflow.CheckSampled},
	})
	rec.Add(mAuditRuns, 1)
	rec.SetGauge(mAuditLast, float64(time.Now().UnixMilli()))
	if err != nil {
		s.cfg.Logf("audit: compile: %v", err)
		return
	}
	if res.Verify == nil {
		return
	}
	rec.Add(mAuditChecks, int64(res.Verify.Checks))
	rec.Add(mAuditViolations, int64(len(res.Verify.Violations)))
	for _, v := range res.Verify.Violations {
		s.cfg.Logf("audit violation: %s %s: %s", v.Checker, v.Subject, v.Detail)
	}
}

// auditDesign is the small fixed workload the background audits compile:
// two block types exercising both the shift-register and logic paths,
// stitched as a pair.
func auditDesign() *macroflow.Design {
	d := macroflow.NewDesign()
	d.AddBlockType(macroflow.NewSpec("audit_sr").ShiftRegs(4, 8, 2, 4))
	d.AddBlockType(macroflow.NewSpec("audit_logic").Logic(96, 4, 2))
	d.AddInstance(0, "audit_sr_0")
	d.AddInstance(1, "audit_logic_0")
	d.Connect(0, 1, 8)
	return d
}

// routes builds the versioned HTTP surface.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/debug/flightrecorder", s.handleFlightDump)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func httpStatus(code string) int {
	switch code {
	case apiv1.ErrBadRequest, apiv1.ErrInvalidOptions:
		return http.StatusBadRequest
	case apiv1.ErrQueueFull:
		return http.StatusTooManyRequests
	case apiv1.ErrDraining:
		return http.StatusServiceUnavailable
	case apiv1.ErrNotFound:
		return http.StatusNotFound
	case apiv1.ErrGone:
		return http.StatusGone
	case apiv1.ErrNotFinished, apiv1.ErrNotCancelable:
		return http.StatusConflict
	case apiv1.ErrUnsupported:
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, e *apiv1.Error) {
	writeJSON(w, httpStatus(e.Code), apiv1.ErrorEnvelope{Error: e})
}

// maxRequestBytes bounds a submitted request body; a longer one is a
// bad_request. The largest body the daemon's tests and the benchmark's
// daemon-dse workload send is under 2 KB, and cnvW1A1 spelled out as a
// custom design (74 block types, 175 instances) is some tens of KB.
const maxRequestBytes = 1 << 20

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := apiv1.DecodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		s.refuse(w, "invalid", asAPIError(err))
		return
	}
	p, aerr := s.admit(req)
	if aerr != nil {
		s.refuse(w, "invalid", aerr)
		return
	}
	now := time.Now().UnixMilli()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.refuse(w, "draining", &apiv1.Error{Code: apiv1.ErrDraining, Message: "server is draining"})
		return
	}
	if s.queue.Len() >= s.cfg.QueueCap {
		s.mu.Unlock()
		s.refuse(w, "queue_full", &apiv1.Error{Code: apiv1.ErrQueueFull,
			Message: fmt.Sprintf("compile queue is full (%d jobs)", s.cfg.QueueCap)})
		return
	}
	s.seq++
	j := &job{
		id:          jobID(s.seq),
		seq:         s.seq,
		priority:    req.Priority,
		plan:        p,
		state:       apiv1.JobQueued,
		submittedMs: now,
	}
	j.cond = sync.NewCond(&j.mu)
	j.events.addState(apiv1.JobQueued, now)
	s.jobs[j.id] = j
	heap.Push(&s.queue, j)
	s.peak = max(s.peak, s.queue.Len())
	s.tel.rec.Add(mSubmitted, 1)
	pos := s.queue.ahead(j)
	s.cond.Broadcast()
	s.mu.Unlock()

	writeJSON(w, http.StatusAccepted, j.status(pos))
}

// refuse counts one rejected submission by reason and writes its error.
func (s *server) refuse(w http.ResponseWriter, reason string, e *apiv1.Error) {
	s.tel.rec.Add(series(mRejected, "reason", reason), 1)
	writeError(w, e)
}

func jobID(seq int64) string { return fmt.Sprintf("j%06d", seq) }

// lookup finds a job and its queue position, or says why there is none.
func (s *server) lookup(id string) (*job, int, *apiv1.Error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, 0, s.missing(id)
	}
	pos := 0
	if j.index >= 0 {
		pos = s.queue.ahead(j)
	}
	return j, pos, nil
}

// missing is the error for an id s.jobs does not hold: gone for an id
// this server issued (a retired job), not_found for any other. s.mu is
// held.
func (s *server) missing(id string) *apiv1.Error {
	if seq, err := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64); err == nil &&
		seq >= 1 && seq <= s.seq && jobID(seq) == id {
		return &apiv1.Error{Code: apiv1.ErrGone, Message: fmt.Sprintf(
			"job %s is gone: the server keeps the last %d finished jobs", id, len(s.retired))}
	}
	return &apiv1.Error{Code: apiv1.ErrNotFound, Message: "unknown job " + id}
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, pos, aerr := s.lookup(r.PathValue("id"))
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, j.status(pos))
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, _, aerr := s.lookup(r.PathValue("id"))
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	j.mu.Lock()
	state, raw, jerr := j.state, j.result, j.jerr
	j.mu.Unlock()
	switch state {
	case apiv1.JobDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
	case apiv1.JobFailed:
		writeError(w, jerr)
	default:
		writeError(w, &apiv1.Error{Code: apiv1.ErrNotFinished,
			Message: fmt.Sprintf("job %s is %s", j.id, state)})
	}
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		aerr := s.missing(id)
		s.mu.Unlock()
		writeError(w, aerr)
		return
	}
	j.mu.Lock()
	state := j.state
	cancelable := state == apiv1.JobQueued && j.index >= 0
	j.mu.Unlock()
	if !cancelable {
		s.mu.Unlock()
		writeError(w, &apiv1.Error{Code: apiv1.ErrNotCancelable,
			Message: fmt.Sprintf("job %s is %s", id, state)})
		return
	}
	heap.Remove(&s.queue, j.index)
	j.plan = nil
	s.mu.Unlock()
	s.noteFinished(j, apiv1.JobCanceled, 0)
	j.setState(apiv1.JobCanceled)
	s.retire(j)
	writeJSON(w, http.StatusOK, j.status(0))
}

// handleEvents streams the job's event feed as JSONL, starting at
// ?from=<seq>, and follows the job live until it reaches a terminal
// state (or the client goes away).
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, _, aerr := s.lookup(r.PathValue("id"))
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, &apiv1.Error{Code: apiv1.ErrBadRequest, Message: "bad from=" + v})
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/jsonl")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// j.cond does not wake on context cancellation, so client departure
	// is turned into a broadcast — under the lock: a broadcast between
	// the streamer's ctx check and its Wait would otherwise be lost.
	ctx := r.Context()
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()

	// The log only grows, so the copy taken under the lock renders
	// after it is released.
	next := from
	for {
		j.mu.Lock()
		for next >= j.events.len() && !j.terminal() && ctx.Err() == nil {
			j.cond.Wait()
		}
		log, finished := j.events, j.terminal()
		j.mu.Unlock()

		if err := log.render(next, func(ev *apiv1.Event) error { return enc.Encode(ev) }); err != nil {
			return
		}
		sent := next < log.len()
		next = max(next, log.len())
		if flusher != nil {
			flusher.Flush()
		}
		if ctx.Err() != nil || (finished && !sent) {
			return
		}
	}
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, apiv1.Health{Status: status, Version: apiv1.Version})
}
