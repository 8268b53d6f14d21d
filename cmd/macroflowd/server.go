package main

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"macroflow"
	apiv1 "macroflow/api/v1"
	"macroflow/internal/obs"
)

// maxEventsPerJob bounds one job's in-memory event feed. Span events
// beyond the cap are dropped (with a final marker event); state and
// progress events always land, so a client never misses a transition.
const maxEventsPerJob = 4096

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

	mu       sync.Mutex
	cond     *sync.Cond // queue activity, job completion, drain
	queue    jobHeap
	jobs     map[string]*job
	seq      int64
	running  int
	draining bool
	drainCh  chan struct{}

	submitted int64
	completed int64
	failed    int64
	canceled  int64
	rejected  int64
	audit     apiv1.AuditStats

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
		drainCh: make(chan struct{}),
	}
	s.tel = newTelemetry(s.cfg)
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

// job is one submitted compile.
type job struct {
	id       string
	seq      int64
	priority int
	req      *apiv1.CompileRequest
	index    int // heap index; -1 once popped or canceled

	mu           sync.Mutex
	cond         *sync.Cond
	state        string
	submittedMs  int64
	startedMs    int64
	finishedMs   int64
	events       []apiv1.Event
	spansDropped int
	result       []byte // server-encoded wire result (exact response bytes)
	jerr         *apiv1.Error
}

func (j *job) emit(ev apiv1.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.emitLocked(ev)
}

func (j *job) emitLocked(ev apiv1.Event) {
	if ev.Type == "span" && len(j.events) >= maxEventsPerJob {
		if j.spansDropped == 0 {
			marker := apiv1.Event{Type: "state", Name: "events_truncated", AtMs: ev.AtMs}
			marker.Seq = len(j.events)
			j.events = append(j.events, marker)
		}
		j.spansDropped++
		return
	}
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
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
	j.emitLocked(apiv1.Event{Type: "state", Name: state, AtMs: now})
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
		ev := apiv1.Event{
			Type:  "span",
			Name:  sr.Name,
			AtMs:  time.Now().UnixMilli(),
			DurUs: sr.Dur.Microseconds(),
		}
		if len(sr.Attrs) > 0 {
			ev.Attrs = make(map[string]any, len(sr.Attrs))
			for _, a := range sr.Attrs {
				ev.Attrs[a.Key] = a.Val
			}
		}
		j.emit(ev)
	}))
	progress := func(chain, iter int, cost float64) {
		j.emit(apiv1.Event{
			Type: "progress", Name: "stitch",
			AtMs:  time.Now().UnixMilli(),
			Chain: chain, Iter: iter, Cost: cost,
		})
	}

	raw, jerr := s.compile(j.req, rec, progress)

	j.mu.Lock()
	j.result = raw
	j.jerr = jerr
	j.mu.Unlock()
	s.mu.Lock()
	if jerr != nil {
		s.failed++
	} else {
		s.completed++
	}
	s.running--
	s.cond.Broadcast()
	s.mu.Unlock()
	state := apiv1.JobDone
	if jerr != nil {
		s.cfg.Logf("job %s failed: %s", j.id, jerr.Message)
		state = apiv1.JobFailed
	}
	// Fold the job recorder's cache/solver counters and gauges into the
	// service registry, then run the anomaly trigger: an SLO overrun or
	// an oracle violation snapshots the flight ring to disk. This runs
	// before the state flip — the terminal state is the signal clients
	// poll on, so the dump file must exist by the time they see it.
	s.tel.absorb(rec)
	s.tel.noteFinished(j, state, rec.CounterValue("oracle.violations"))
	j.setState(state)
}

// compile executes one request against the shared warm state. The
// result is encoded once, here, so every GET of it returns the exact
// same bytes.
func (s *server) compile(req *apiv1.CompileRequest, rec *macroflow.Recorder, progress func(int, int, float64)) ([]byte, *apiv1.Error) {
	device := req.Device
	if device == "" {
		device = s.cfg.Device
	}
	flow, err := macroflow.NewFlow(device)
	if err != nil {
		return nil, &apiv1.Error{Code: apiv1.ErrInvalidOptions, Message: err.Error()}
	}
	mode, aerr := s.mode(req)
	if aerr != nil {
		return nil, aerr
	}
	so, aerr2 := req.Stitch.Options()
	if aerr2 != nil {
		return nil, asAPIError(aerr2)
	}
	im, aerr3 := req.Implement.Options()
	if aerr3 != nil {
		return nil, asAPIError(aerr3)
	}
	so.Obs, so.Progress = rec, progress
	im.Obs, im.Cache = rec, s.cfg.Cache

	opts := macroflow.CompileOptions{
		Stitch: so, Implement: im,
		Partition:  req.Partition.Options(),
		SkipStitch: req.SkipStitch,
	}
	var wire *apiv1.CompileResult
	if req.Design.Builtin != "" {
		// The builtin cnvW1A1 flow defaults to the paper's search window.
		flow.SetSearch(0.5, 0.02, 3.0)
		if w := req.Search; w != nil {
			flow.SetSearch(w.Start, w.Step, w.Max)
		}
		res, err := flow.RunCNV(mode, opts)
		if err != nil {
			return nil, &apiv1.Error{Code: apiv1.ErrInternal, Message: err.Error()}
		}
		wire = apiv1.ResultFromCNV(res, req.SkipStitch)
	} else {
		if w := req.Search; w != nil {
			flow.SetSearch(w.Start, w.Step, w.Max)
		}
		d, err := req.Design.BuildDesign()
		if err != nil {
			return nil, asAPIError(err)
		}
		res, err := flow.Compile(d, mode, opts)
		if err != nil {
			return nil, &apiv1.Error{Code: apiv1.ErrInternal, Message: err.Error()}
		}
		wire = apiv1.ResultFromCompile(res, req.SkipStitch)
		wire.Instances = req.Design.InstanceCounts()
	}
	raw, err := json.Marshal(wire)
	if err != nil {
		return nil, &apiv1.Error{Code: apiv1.ErrInternal, Message: err.Error()}
	}
	return raw, nil
}

func (s *server) mode(req *apiv1.CompileRequest) (macroflow.CFMode, *apiv1.Error) {
	switch req.Mode.Kind {
	case "", "minsweep":
		return macroflow.MinSweepCF(), nil
	case "constant":
		return macroflow.ConstantCF(req.Mode.CF), nil
	case "estimator":
		if s.cfg.Estimator == nil {
			return macroflow.CFMode{}, &apiv1.Error{Code: apiv1.ErrUnsupported,
				Message: "estimator mode needs an estimator loaded into the server (-estimator)"}
		}
		return macroflow.EstimatorCF(s.cfg.Estimator), nil
	}
	return macroflow.CFMode{}, &apiv1.Error{Code: apiv1.ErrInvalidOptions,
		Message: fmt.Sprintf("unknown cf mode %q (minsweep, constant, estimator)", req.Mode.Kind)}
}

// checkRequest validates a submission end to end — wire shape, then the
// same StitchOptions.Validate / ImplementOptions.Validate the CLI path
// runs — so a bad request is rejected at admission in microseconds with
// the library's own messages.
func (s *server) checkRequest(req *apiv1.CompileRequest) *apiv1.Error {
	if err := req.Validate(); err != nil {
		return asAPIError(err)
	}
	if _, aerr := s.mode(req); aerr != nil {
		return aerr
	}
	so, err := req.Stitch.Options()
	if err != nil {
		return asAPIError(err)
	}
	if err := so.Validate(); err != nil {
		return &apiv1.Error{Code: apiv1.ErrInvalidOptions, Message: err.Error()}
	}
	im, err := req.Implement.Options()
	if err != nil {
		return asAPIError(err)
	}
	if err := im.Validate(); err != nil {
		return &apiv1.Error{Code: apiv1.ErrInvalidOptions, Message: err.Error()}
	}
	if err := req.Partition.Options().Validate(); err != nil {
		return &apiv1.Error{Code: apiv1.ErrInvalidOptions, Message: err.Error()}
	}
	return nil
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
	s.mu.Lock()
	seed := s.audit.Runs + 1
	s.mu.Unlock()

	flow, err := macroflow.NewFlow(s.cfg.Device)
	if err != nil {
		s.cfg.Logf("audit: %v", err)
		return
	}
	res, err := flow.Compile(auditDesign(), macroflow.MinSweepCF(), macroflow.CompileOptions{
		Stitch:    macroflow.StitchOptions{Seed: seed, Anneal: macroflow.AnnealOptions{Iterations: 2000}, Check: macroflow.CheckSampled},
		Implement: macroflow.ImplementOptions{Cache: s.cfg.Cache, Check: macroflow.CheckSampled},
	})
	now := time.Now().UnixMilli()
	s.mu.Lock()
	s.audit.Runs++
	s.audit.LastMs = now
	if err == nil && res.Verify != nil {
		s.audit.Checks += int64(res.Verify.Checks)
		s.audit.Violations += int64(len(res.Verify.Violations))
	}
	s.mu.Unlock()
	if err != nil {
		s.cfg.Logf("audit: compile: %v", err)
		return
	}
	if res.Verify != nil {
		s.tel.rec.Add("macroflowd.audit_checks_total", int64(res.Verify.Checks))
		if n := len(res.Verify.Violations); n > 0 {
			s.tel.rec.Add("macroflowd.audit_violations_total", int64(n))
			for _, v := range res.Verify.Violations {
				s.cfg.Logf("audit violation: %s %s: %s", v.Checker, v.Subject, v.Detail)
			}
		}
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
		s.reject("invalid")
		writeError(w, asAPIError(err))
		return
	}
	if aerr := s.checkRequest(req); aerr != nil {
		s.reject("invalid")
		writeError(w, aerr)
		return
	}
	now := time.Now().UnixMilli()

	s.mu.Lock()
	if s.draining {
		s.rejected++
		s.mu.Unlock()
		s.tel.noteRejected("draining")
		writeError(w, &apiv1.Error{Code: apiv1.ErrDraining, Message: "server is draining"})
		return
	}
	if s.queue.Len() >= s.cfg.QueueCap {
		s.rejected++
		s.mu.Unlock()
		s.tel.noteRejected("queue_full")
		writeError(w, &apiv1.Error{Code: apiv1.ErrQueueFull,
			Message: fmt.Sprintf("compile queue is full (%d jobs)", s.cfg.QueueCap)})
		return
	}
	s.seq++
	j := &job{
		id:          fmt.Sprintf("j%06d", s.seq),
		seq:         s.seq,
		priority:    req.Priority,
		req:         req,
		state:       apiv1.JobQueued,
		submittedMs: now,
	}
	j.cond = sync.NewCond(&j.mu)
	j.events = append(j.events, apiv1.Event{Type: "state", Name: apiv1.JobQueued, AtMs: now})
	s.jobs[j.id] = j
	heap.Push(&s.queue, j)
	s.submitted++
	pos := s.queue.ahead(j)
	depth := s.queue.Len()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.tel.noteQueued(depth)

	writeJSON(w, http.StatusAccepted, j.status(pos))
}

func (s *server) reject(reason string) {
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
	s.tel.noteRejected(reason)
}

// lookup finds a job and its queue position.
func (s *server) lookup(id string) (*job, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, 0
	}
	pos := 0
	if j.index >= 0 {
		pos = s.queue.ahead(j)
	}
	return j, pos
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, pos := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, &apiv1.Error{Code: apiv1.ErrNotFound, Message: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, j.status(pos))
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, _ := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, &apiv1.Error{Code: apiv1.ErrNotFound, Message: "unknown job " + r.PathValue("id")})
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
		s.mu.Unlock()
		writeError(w, &apiv1.Error{Code: apiv1.ErrNotFound, Message: "unknown job " + id})
		return
	}
	j.mu.Lock()
	cancelable := j.state == apiv1.JobQueued && j.index >= 0
	j.mu.Unlock()
	if !cancelable {
		state := j.state
		s.mu.Unlock()
		writeError(w, &apiv1.Error{Code: apiv1.ErrNotCancelable,
			Message: fmt.Sprintf("job %s is %s", id, state)})
		return
	}
	heap.Remove(&s.queue, j.index)
	s.canceled++
	s.mu.Unlock()
	j.setState(apiv1.JobCanceled)
	s.tel.noteFinished(j, apiv1.JobCanceled, 0)
	writeJSON(w, http.StatusOK, j.status(0))
}

// handleEvents streams the job's event feed as JSONL, starting at
// ?from=<seq>, and follows the job live until it reaches a terminal
// state (or the client goes away).
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, _ := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, &apiv1.Error{Code: apiv1.ErrNotFound, Message: "unknown job " + r.PathValue("id")})
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

	// j.cond does not wake on context cancellation, so a watcher
	// goroutine turns client departure into a broadcast.
	ctx := r.Context()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			// Broadcast under the lock: a broadcast between the
			// streamer's ctx check and its Wait would otherwise be lost.
			j.mu.Lock()
			j.cond.Broadcast()
			j.mu.Unlock()
		case <-done:
		}
	}()

	next := from
	for {
		j.mu.Lock()
		for next >= len(j.events) && !j.terminal() && ctx.Err() == nil {
			j.cond.Wait()
		}
		batch := append([]apiv1.Event(nil), j.events[min(next, len(j.events)):]...)
		next = len(j.events)
		finished := j.terminal()
		j.mu.Unlock()

		for _, ev := range batch {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if ctx.Err() != nil || (finished && len(batch) == 0) {
			return
		}
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := s.cfg.Cache.Stats()
	ph, pm, ps, pn := s.cfg.Cache.PersistentStats()
	s.mu.Lock()
	st := &apiv1.ServerStats{
		Version:             apiv1.Version,
		Device:              s.cfg.Device,
		Workers:             s.cfg.Workers,
		Draining:            s.draining,
		Submitted:           s.submitted,
		Completed:           s.completed,
		Failed:              s.failed,
		Canceled:            s.canceled,
		Rejected:            s.rejected,
		QueueLen:            s.queue.Len(),
		Running:             s.running,
		Cache:               cs,
		PersistentHits:      ph,
		PersistentMisses:    pm,
		PersistentStores:    ps,
		PersistentNegatives: pn,
		Audit:               s.audit,
	}
	s.mu.Unlock()
	st.Telemetry = s.telemetryStats()
	writeJSON(w, http.StatusOK, st)
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
