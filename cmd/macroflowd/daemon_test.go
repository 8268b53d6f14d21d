package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"macroflow"
	apiv1 "macroflow/api/v1"
	"macroflow/internal/implcache"
)

// newTestServer stands up an in-process daemon over httptest.
func newTestServer(t *testing.T, cfg serverConfig) (*server, *apiv1.Client) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {} // the test owns the noise
	}
	s := newServer(cfg)
	hs := httptest.NewServer(s.routes())
	t.Cleanup(hs.Close)
	return s, apiv1.NewClient(hs.URL)
}

// smallReq is the two-block custom design the quick daemon tests
// compile.
func smallReq(seed int64) *apiv1.CompileRequest {
	return &apiv1.CompileRequest{
		Design: apiv1.DesignSpec{
			Blocks: []apiv1.BlockSpec{
				{Name: "d_logic", Components: []apiv1.ComponentSpec{
					{Kind: apiv1.CompLogic, LUTs: 96, Fanin: 4, Depth: 2}}},
				{Name: "d_sr", Components: []apiv1.ComponentSpec{
					{Kind: apiv1.CompShiftRegs, Count: 4, Length: 8, ControlSets: 2, Fanin: 4}}},
			},
			Instances: []apiv1.InstanceSpec{{Name: "l0", Block: 0}, {Name: "s0", Block: 1}},
			Nets:      []apiv1.NetSpec{{From: 0, To: 1, Width: 8}},
		},
		Stitch: apiv1.StitchParams{Seed: seed, Anneal: &apiv1.AnnealParams{Iterations: 4000}},
	}
}

func submitAndWait(t *testing.T, c *apiv1.Client, req *apiv1.CompileRequest) *apiv1.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	job, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, job.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return final
}

// localResultBytes computes the same request in process, through the
// identical apiv1 conversion and encoding the server uses. The cache
// must match the daemon's layering (memory-only vs persistent) so the
// per-call cache stats agree byte for byte.
func localResultBytes(t *testing.T, req *apiv1.CompileRequest, cache *macroflow.BlockCache) []byte {
	t.Helper()
	flow, err := macroflow.NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	so, aerr := req.Stitch.Options()
	if aerr != nil {
		t.Fatal(aerr)
	}
	im, aerr := req.Implement.Options()
	if aerr != nil {
		t.Fatal(aerr)
	}
	if cache == nil {
		cache = macroflow.NewBlockCache()
	}
	im.Cache = cache
	opts := macroflow.CompileOptions{Stitch: so, Implement: im, SkipStitch: req.SkipStitch}
	var wire *apiv1.CompileResult
	if req.Design.Builtin != "" {
		flow.SetSearch(0.5, 0.02, 3.0)
		res, err := flow.RunCNV(macroflow.MinSweepCF(), opts)
		if err != nil {
			t.Fatal(err)
		}
		wire = apiv1.ResultFromCNV(res, req.SkipStitch)
	} else {
		d, err := req.Design.BuildDesign()
		if err != nil {
			t.Fatal(err)
		}
		res, err := flow.Compile(d, macroflow.MinSweepCF(), opts)
		if err != nil {
			t.Fatal(err)
		}
		wire = apiv1.ResultFromCompile(res, req.SkipStitch)
		wire.Instances = req.Design.InstanceCounts()
	}
	raw, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDaemonCNVByteIdentical: the acceptance contract — an HTTP-compiled
// cnvW1A1 result must be byte-identical to the in-process result at the
// same options.
func TestDaemonCNVByteIdentical(t *testing.T) {
	s, c := newTestServer(t, serverConfig{Workers: 2})
	s.start()
	defer s.drain()

	// Workers is pinned to 1: with parallel implement workers, identical
	// block netlists racing through the cache split nondeterministically
	// between memHits and singleflightHits in the per-call stats, and
	// those counters are part of the wire bytes under comparison.
	req := &apiv1.CompileRequest{
		Design:    apiv1.DesignSpec{Builtin: apiv1.BuiltinCNVW1A1},
		Stitch:    apiv1.StitchParams{Seed: 1, Anneal: &apiv1.AnnealParams{Iterations: 20000}},
		Implement: apiv1.ImplementParams{Workers: 1},
	}
	final := submitAndWait(t, c, req)
	if final.State != apiv1.JobDone {
		t.Fatalf("job state = %s (%v)", final.State, final.Error)
	}
	got, err := c.RawResult(context.Background(), final.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := localResultBytes(t, req, nil)
	if !bytes.Equal(got, want) {
		t.Errorf("HTTP result differs from in-process result (%d vs %d bytes)", len(got), len(want))
	}
	// The lenient client decode agrees with the wire bytes.
	res, err := c.Result(context.Background(), final.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 74 {
		t.Errorf("cnvW1A1 blocks = %d, want 74", len(res.Blocks))
	}
}

// TestDaemonConcurrentDedup: duplicate submissions racing through ≥4
// worker sessions over one shared cache must perform exactly one fresh
// search per unique block — the rest are memory or singleflight hits —
// and return byte-identical results.
func TestDaemonConcurrentDedup(t *testing.T) {
	s, c := newTestServer(t, serverConfig{Workers: 4})
	s.start()
	defer s.drain()

	const n = 6
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := c.Submit(ctx, smallReq(1))
			if err == nil {
				ids[i] = job.ID
			}
		}(i)
	}
	wg.Wait()
	var results [][]byte
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission failed")
		}
		final, err := c.Wait(ctx, id, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != apiv1.JobDone {
			t.Fatalf("job %s state = %s (%v)", id, final.State, final.Error)
		}
		raw, err := c.RawResult(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, raw)
	}
	for i := 1; i < n; i++ {
		// The per-call cache stats legitimately differ between jobs (the
		// first miss vs later hits), but the compiled blocks and stitch
		// must not.
		var a, b apiv1.CompileResult
		if err := json.Unmarshal(results[0], &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(results[i], &b); err != nil {
			t.Fatal(err)
		}
		ab, _ := json.Marshal(a.Blocks)
		bb, _ := json.Marshal(b.Blocks)
		if !bytes.Equal(ab, bb) {
			t.Errorf("job %d blocks diverged from job 0", i)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses != 2 {
		t.Errorf("shared cache Misses = %d, want 2 (one per unique block)", st.Cache.Misses)
	}
	if got := st.Cache.MemHits + st.Cache.SingleflightHits; got != (n-1)*2 {
		t.Errorf("MemHits(%d)+SingleflightHits(%d) = %d, want %d",
			st.Cache.MemHits, st.Cache.SingleflightHits, got, (n-1)*2)
	}
	if st.Completed != n {
		t.Errorf("completed = %d, want %d", st.Completed, n)
	}
}

// TestDaemonRenamedBlockKeepsName: two jobs submit the same components
// under different block names. The server's shared cache serves the
// second — renaming is not a change — but with the second job's own
// name: its bytes equal an in-process replay of both requests on a
// fresh cache.
func TestDaemonRenamedBlockKeepsName(t *testing.T) {
	s, c := newTestServer(t, serverConfig{Workers: 1})
	s.start()
	defer s.drain()

	req := func(name string) *apiv1.CompileRequest {
		return &apiv1.CompileRequest{
			Design: apiv1.DesignSpec{
				Blocks: []apiv1.BlockSpec{{Name: name, Components: []apiv1.ComponentSpec{
					{Kind: apiv1.CompShiftRegs, Count: 4, Length: 8, ControlSets: 2, Fanin: 4},
					{Kind: apiv1.CompSumOfSquares, Width: 6, Terms: 2}}}},
				Instances: []apiv1.InstanceSpec{{Name: "i0", Block: 0}},
			},
			Stitch: apiv1.StitchParams{Seed: 1, Anneal: &apiv1.AnnealParams{Iterations: 2000}},
		}
	}
	local := macroflow.NewBlockCache()
	var got, want []byte
	for _, name := range []string{"alpha", "beta"} {
		final := submitAndWait(t, c, req(name))
		if final.State != apiv1.JobDone {
			t.Fatalf("job %s state = %s (%v)", name, final.State, final.Error)
		}
		var err error
		if got, err = c.RawResult(context.Background(), final.ID); err != nil {
			t.Fatal(err)
		}
		want = localResultBytes(t, req(name), local)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("second job differs from the in-process replay:\n%s\nvs\n%s", got, want)
	}
	var res apiv1.CompileResult
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatal(err)
	}
	if res.Blocks[0].Name != "beta" || res.CacheHits != 1 {
		t.Errorf("second job: block %q with %d cache hits, want beta served from the cache", res.Blocks[0].Name, res.CacheHits)
	}
}

// TestDaemonDrainKeepsAcceptedJobs: every job accepted before SIGTERM
// must finish during drain — drain stops admission, never work — and
// the persistent cache's lifetime stats must be flushed.
func TestDaemonDrainKeepsAcceptedJobs(t *testing.T) {
	dir := t.TempDir()
	cache, err := macroflow.NewPersistentBlockCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One worker and no start() yet: submissions stay queued, so the
	// drain provably finishes queued (not just running) jobs.
	s, c := newTestServer(t, serverConfig{Workers: 1, Cache: cache})

	ctx := context.Background()
	var ids []string
	for i := 0; i < 3; i++ {
		job, err := c.Submit(ctx, smallReq(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	s.start()
	s.drain() // blocks until every accepted job has finished

	for _, id := range ids {
		job, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if job.State != apiv1.JobDone {
			t.Errorf("job %s state after drain = %s, want done", id, job.State)
		}
	}
	// Draining servers refuse new work with the typed 503.
	_, err = c.Submit(ctx, smallReq(9))
	var ae *apiv1.Error
	if !errors.As(err, &ae) || ae.Code != apiv1.ErrDraining {
		t.Errorf("submit while draining = %v, want code %q", err, apiv1.ErrDraining)
	}
	// FlushStats ran: a fresh cache over the same directory sees the
	// daemon session's stores in its persisted lifetime counters.
	reopened, err := implcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lt := reopened.LifetimeStats()
	if lt.Stores == 0 {
		t.Error("drain did not flush lifetime stats (Stores = 0 after reopen)")
	}
}

// TestDaemonCancelAndQueueOrder: queued jobs cancel cleanly (and only
// queued ones), and the priority queue admits by (priority, submission
// order).
func TestDaemonCancelAndQueueOrder(t *testing.T) {
	// No workers started: the queue is fully controllable.
	s, c := newTestServer(t, serverConfig{Workers: 1, QueueCap: 3})
	ctx := context.Background()

	lo, err := c.Submit(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	hiReq := smallReq(2)
	hiReq.Priority = 5
	hi, err := c.Submit(ctx, hiReq)
	if err != nil {
		t.Fatal(err)
	}
	if hi.QueuePos != 0 || hi.Priority != 5 {
		t.Errorf("high-priority job queued at %d, want 0", hi.QueuePos)
	}
	if st, _ := c.Job(ctx, lo.ID); st.QueuePos != 1 {
		t.Errorf("low-priority job queuePos = %d, want 1 behind the priority-5 job", st.QueuePos)
	}

	// Admission control: the bounded queue rejects the overflow with the
	// typed 429.
	if _, err := c.Submit(ctx, smallReq(3)); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, smallReq(4))
	var ae *apiv1.Error
	if !errors.As(err, &ae) || ae.Code != apiv1.ErrQueueFull {
		t.Errorf("overflow submit = %v, want code %q", err, apiv1.ErrQueueFull)
	}

	canceled, err := c.Cancel(ctx, lo.ID)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.State != apiv1.JobCanceled {
		t.Errorf("cancel left state %s", canceled.State)
	}
	if _, err := c.Result(ctx, lo.ID); err == nil {
		t.Error("result of a canceled job did not error")
	}

	s.start()
	s.drain()
	// The canceled job stayed canceled; the others completed.
	if st, _ := c.Job(ctx, lo.ID); st.State != apiv1.JobCanceled {
		t.Errorf("canceled job resurrected as %s", st.State)
	}
	if st, _ := c.Job(ctx, hi.ID); st.State != apiv1.JobDone {
		t.Errorf("high-priority job state = %s", st.State)
	}
	// Finished jobs are no longer cancelable.
	_, err = c.Cancel(ctx, hi.ID)
	if !errors.As(err, &ae) || ae.Code != apiv1.ErrNotCancelable {
		t.Errorf("cancel of a done job = %v, want code %q", err, apiv1.ErrNotCancelable)
	}
}

// TestCancelRacesCompletion: cancels hammered at short jobs while the
// workers pop, run and finish them. Every reply is 200 canceled or 409
// not_cancelable, and under -race the handler reads the job's state
// only under the job's lock, which the worker's state flips also hold.
// The handler is driven in process so a cancel lands every few
// microseconds, inside the worker's dequeue and finish windows.
func TestCancelRacesCompletion(t *testing.T) {
	s, c := newTestServer(t, serverConfig{Workers: 2})
	s.start()
	defer s.drain()
	h := s.routes()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := 0; i < 40; i++ {
		job, err := c.Submit(ctx, smallReq(int64(i%4)))
		if err != nil {
			t.Fatal(err)
		}
		for settled := false; !settled; {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/jobs/"+job.ID+"/cancel", nil))
			switch rr.Code {
			case http.StatusOK:
				var st apiv1.JobStatus
				if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil || st.State != apiv1.JobCanceled {
					t.Fatalf("job %d: 200 with %s", i, rr.Body)
				}
				settled = true
			case http.StatusConflict:
				var env apiv1.ErrorEnvelope
				if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error == nil ||
					env.Error.Code != apiv1.ErrNotCancelable {
					t.Fatalf("job %d: 409 with %s", i, rr.Body)
				}
				settled = !strings.HasSuffix(env.Error.Message, " is "+apiv1.JobQueued) &&
					!strings.HasSuffix(env.Error.Message, " is "+apiv1.JobRunning)
			default:
				t.Fatalf("job %d: cancel answered %d %s", i, rr.Code, rr.Body)
			}
		}
	}
}

// TestDaemonEventStream: the JSONL feed carries the state transitions,
// span-bridge events and stitch progress samples in seq order, and
// ?from= resumes without replay.
func TestDaemonEventStream(t *testing.T) {
	s, c := newTestServer(t, serverConfig{Workers: 1})
	s.start()
	defer s.drain()

	req := smallReq(1)
	req.Stitch.TraceEvery = 500
	final := submitAndWait(t, c, req)
	if final.State != apiv1.JobDone {
		t.Fatalf("job state = %s (%v)", final.State, final.Error)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var events []apiv1.Event
	if err := c.Events(ctx, final.ID, 0, func(ev apiv1.Event) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var states []string
	byType := map[string]int{}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d — feed must be dense and ordered", i, ev.Seq)
		}
		byType[ev.Type]++
		if ev.Type == "state" {
			states = append(states, ev.Name)
		}
	}
	want := []string{apiv1.JobQueued, apiv1.JobRunning, apiv1.JobDone}
	if strings.Join(states, ",") != strings.Join(want, ",") {
		t.Errorf("state sequence = %v, want %v", states, want)
	}
	if byType["span"] == 0 {
		t.Error("no span events — the obs span→event bridge is dead")
	}
	if byType["progress"] == 0 {
		t.Error("no stitch progress events")
	}
	// Resumption: from=len(events) yields nothing new for a done job.
	tail := 0
	if err := c.Events(ctx, final.ID, len(events), func(apiv1.Event) error {
		tail++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tail != 0 {
		t.Errorf("resuming past the end replayed %d events", tail)
	}
	// And from a midpoint, exactly the suffix.
	mid := len(events) / 2
	suffix := 0
	if err := c.Events(ctx, final.ID, mid, func(apiv1.Event) error {
		suffix++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if suffix != len(events)-mid {
		t.Errorf("from=%d replayed %d events, want %d", mid, suffix, len(events)-mid)
	}
}

// streamRecorder is a ResponseRecorder that closes wrote on the first
// body write, so a test can wait until a streaming handler is following
// its job.
type streamRecorder struct {
	*httptest.ResponseRecorder
	once  sync.Once
	wrote chan struct{}
}

func (w *streamRecorder) Write(b []byte) (int, error) {
	n, err := w.ResponseRecorder.Write(b)
	w.once.Do(func() { close(w.wrote) })
	return n, err
}

// TestEventStreamReturnsOnClientDrop: a client that leaves a live event
// stream ends its handler. The job stays queued (no worker runs), so
// nothing but the request context's cancellation can wake the handler's
// wait for the next event.
func TestEventStreamReturnsOnClientDrop(t *testing.T) {
	s, c := newTestServer(t, serverConfig{Workers: 1})
	job, err := c.Submit(context.Background(), smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &streamRecorder{ResponseRecorder: httptest.NewRecorder(), wrote: make(chan struct{})}
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+"/events", nil).WithContext(ctx)
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		s.routes().ServeHTTP(w, req)
	}()
	select {
	case <-w.wrote: // the queued state event is out: the handler follows the job
	case <-returned:
		t.Fatalf("handler returned before the client left: %d %s", w.Code, w.Body)
	case <-time.After(time.Minute):
		t.Fatal("event stream wrote nothing within a minute")
	}
	cancel()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("event stream handler still running 10 s after the client left")
	}
}

// TestDaemonRejectsBadRequests: the strict decoder and the shared
// Validate() methods reject malformed submissions with typed errors —
// the same messages the CLI paths produce.
func TestDaemonRejectsBadRequests(t *testing.T) {
	s, c := newTestServer(t, serverConfig{Workers: 1})
	s.start()
	defer s.drain()
	ctx := context.Background()

	cases := []struct {
		name     string
		mutate   func(*apiv1.CompileRequest)
		wantCode string
		wantMsg  string
	}{
		{"bad-backend", func(r *apiv1.CompileRequest) { r.Stitch.Backend = "bogus" },
			apiv1.ErrInvalidOptions, `unknown backend "bogus"`},
		// The removed solvers are unknown backends like any other: the
		// library's message, listing exactly what is left.
		{"removed-backend-evo", func(r *apiv1.CompileRequest) { r.Stitch.Backend = "evo" },
			apiv1.ErrInvalidOptions, `stitch: unknown backend "evo" (want anneal, analytic or hybrid)`},
		{"removed-backend-portfolio", func(r *apiv1.CompileRequest) { r.Stitch.Backend = "portfolio" },
			apiv1.ErrInvalidOptions, `stitch: unknown backend "portfolio" (want anneal, analytic or hybrid)`},
		{"negative-workers", func(r *apiv1.CompileRequest) { r.Implement.Workers = -1 },
			apiv1.ErrInvalidOptions, "macroflow: ImplementOptions.Workers must be >= 0 (got -1)"},
		{"bad-check", func(r *apiv1.CompileRequest) { r.Stitch.Check = "everything" },
			apiv1.ErrInvalidOptions, ""},
		// A step off the 0.02 CF grid would re-probe every grid CF (1e-9:
		// ~2e9 probes on a worker nobody can cancel); it dies at admission.
		{"off-grid-step", func(r *apiv1.CompileRequest) { r.Search = &apiv1.SearchWindow{Start: 0.9, Step: 1e-9, Max: 3} },
			apiv1.ErrInvalidOptions, "pblock: search step 1e-09 is not a positive multiple of the 0.02 CF grid"},
		{"bad-device", func(r *apiv1.CompileRequest) { r.Device = "virtex2" },
			apiv1.ErrInvalidOptions, ""},
		// A net wider than MaxNetWidth has no exact cost; it dies at
		// admission with the library's typed error's text.
		{"net-too-wide", func(r *apiv1.CompileRequest) { r.Design.Nets[0].Width = 1 << 40 },
			apiv1.ErrInvalidOptions, "macroflow: net width above MaxNetWidth: width 1099511627776 > 1048576"},
		{"estimator-not-loaded", func(r *apiv1.CompileRequest) { r.Mode = apiv1.ModeSpec{Kind: "estimator"} },
			apiv1.ErrUnsupported, ""},
		// The constant CF is checked once, by the library's CFMode.Validate.
		{"constant-without-cf", func(r *apiv1.CompileRequest) { r.Mode = apiv1.ModeSpec{Kind: "constant"} },
			apiv1.ErrInvalidOptions, "pblock: constant CF 0 is not a finite number > 0"},
		{"constant-negative-cf", func(r *apiv1.CompileRequest) { r.Mode = apiv1.ModeSpec{Kind: "constant", CF: -2} },
			apiv1.ErrInvalidOptions, "pblock: constant CF -2 is not a finite number > 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := smallReq(1)
			tc.mutate(req)
			_, err := c.Submit(ctx, req)
			var ae *apiv1.Error
			if !errors.As(err, &ae) {
				t.Fatalf("submit = %v, want typed *Error", err)
			}
			if ae.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", ae.Code, tc.wantCode)
			}
			if tc.wantMsg != "" && !strings.Contains(ae.Message, tc.wantMsg) {
				t.Errorf("message %q does not carry the library's text %q", ae.Message, tc.wantMsg)
			}
		})
	}

	// Unknown fields die in the strict decoder with a 400 bad_request —
	// a typo, and equally the request fields of the removed solvers,
	// knobs and flat aliases from a client that still sends them. So
	// does a body past maxRequestBytes, however well-formed: it is not
	// read to its end.
	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before.Submitted != 0 {
		t.Errorf("%d of the invalid requests were admitted to the queue", before.Submitted)
	}
	oversized := `{"design":{"builtin":"cnvW1A1"}` + strings.Repeat(" ", maxRequestBytes) + `}`
	bodies := []string{
		`{"design":{"builtin":"cnvW1A1"},"iteratons":5}`,
		`{"design":{"builtin":"cnvW1A1"},"stitch":{"evo":{"mu":4}}}`,
		`{"design":{"builtin":"cnvW1A1"},"stitch":{"portfolio":{"backends":["anneal","hybrid"]}}}`,
		`{"design":{"builtin":"cnvW1A1"},"partition":{"shards":2,"backend":"evo"}}`,
		`{"design":{"builtin":"cnvW1A1"},"implement":{"probeWorkers":4}}`,
		`{"design":{"builtin":"cnvW1A1"},"stitch":{"adaptiveStop":true}}`,
		`{"design":{"builtin":"cnvW1A1"},"stitch":{"iterations":4000}}`,
		`{"design":{"builtin":"cnvW1A1"},"stitch":{"anneal":{"tempLadder":2.5}}}`,
		oversized,
	}
	for _, body := range bodies {
		label := body[:min(len(body), 80)]
		resp, err := http.Post(c.BaseURL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 400 {
			t.Errorf("%s: HTTP %d, want 400", label, resp.StatusCode)
		}
		var env apiv1.ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if env.Error == nil || env.Error.Code != apiv1.ErrBadRequest {
			t.Errorf("%s: envelope = %+v, want code %q", label, env.Error, apiv1.ErrBadRequest)
		}
	}
	after, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Rejected - before.Rejected; got != int64(len(bodies)) {
		t.Errorf("%d rejections counted for %d bad bodies", got, len(bodies))
	}
	// None of it cost the next valid job anything.
	if final := submitAndWait(t, c, smallReq(1)); final.State != apiv1.JobDone {
		t.Errorf("valid job after the rejected ones ended %s, want %s", final.State, apiv1.JobDone)
	}

	// Job ids: one the server issued and let go is gone on every route,
	// one it never issued, in any spelling, not_found. A canceled job is
	// finished too: at QueueCap 1 the fifth cancel lets the first go.
	_, ic := newTestServer(t, serverConfig{Workers: 1, QueueCap: 1})
	for i := 0; i <= retainFinished; i++ {
		job, err := ic.Submit(ctx, smallReq(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ic.Cancel(ctx, job.ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range []struct {
		id     string
		code   string
		status int
	}{
		{"j000001", apiv1.ErrGone, http.StatusGone},
		{jobID(retainFinished + 2), apiv1.ErrNotFound, http.StatusNotFound}, // the next id
		{"j999999", apiv1.ErrNotFound, http.StatusNotFound},
		{"j2", apiv1.ErrNotFound, http.StatusNotFound},
		{"j-00002", apiv1.ErrNotFound, http.StatusNotFound},
		{"nope", apiv1.ErrNotFound, http.StatusNotFound},
	} {
		for _, r := range jobRoutes {
			if status, e := call(t, r.method, ic.BaseURL+"/v1/jobs/"+row.id+r.suffix); status != row.status || e == nil || e.Code != row.code {
				t.Errorf("%s %s%s: HTTP %d %+v, want %d %s", r.method, row.id, r.suffix, status, e, row.status, row.code)
			}
		}
	}
}

// TestDaemonStatsAndHealth: the stats and health endpoints reflect the
// server's lifecycle.
func TestDaemonStatsAndHealth(t *testing.T) {
	s, c := newTestServer(t, serverConfig{Workers: 2})
	s.start()
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != apiv1.Version {
		t.Errorf("health = %+v", h)
	}
	final := submitAndWait(t, c, smallReq(1))
	if final.State != apiv1.JobDone {
		t.Fatalf("job state = %s", final.State)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 1 || st.Completed != 1 || st.Workers != 2 {
		t.Errorf("stats = %+v", st)
	}
	s.drain()
	h, err = c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("health after drain = %q, want draining", h.Status)
	}
}

// TestDaemonBinarySmoke is the ci.sh smoke step: build the real binary,
// drive it over TCP with the api/v1 client, compare against the
// in-process result byte for byte, then SIGTERM and assert a clean
// drain. Gated behind MACROFLOWD_SMOKE=1 so routine go test runs stay
// fast; ci.sh sets it (and builds with -race).
func TestDaemonBinarySmoke(t *testing.T) {
	if os.Getenv("MACROFLOWD_SMOKE") == "" {
		t.Skip("set MACROFLOWD_SMOKE=1 to run the binary smoke test")
	}
	bin := filepath.Join(t.TempDir(), "macroflowd")
	build := exec.Command("go", "build", "-race", "-o", bin, "macroflow/cmd/macroflowd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build: %v", err)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "4", "-cache", t.TempDir())
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The daemon logs "listening on <addr>" once the socket is up.
	sc := bufio.NewScanner(stderr)
	addr := ""
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		t.Fatal("daemon never reported its listen address")
	}
	drained := make(chan string, 1)
	go func() {
		rest := ""
		for sc.Scan() {
			rest += sc.Text() + "\n"
		}
		drained <- rest
	}()

	c := apiv1.NewClient("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := smallReq(1)
	job, err := c.Submit(ctx, req)
	if err != nil {
		cmd.Process.Kill()
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, job.ID, 10*time.Millisecond)
	if err != nil {
		cmd.Process.Kill()
		t.Fatal(err)
	}
	if final.State != apiv1.JobDone {
		cmd.Process.Kill()
		t.Fatalf("job state = %s (%v)", final.State, final.Error)
	}
	got, err := c.RawResult(ctx, job.ID)
	if err != nil {
		cmd.Process.Kill()
		t.Fatal(err)
	}
	localCache, err := macroflow.NewPersistentBlockCache(t.TempDir())
	if err != nil {
		cmd.Process.Kill()
		t.Fatal(err)
	}
	want := localResultBytes(t, req, localCache)
	if !bytes.Equal(got, want) {
		cmd.Process.Kill()
		t.Fatalf("daemon result differs from in-process result:\n got %s\nwant %s", got, want)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly after SIGTERM: %v", err)
	}
	if out := <-drained; !strings.Contains(out, "drained cleanly") {
		t.Errorf("daemon stderr missing clean-drain line:\n%s", out)
	}
}

// TestDaemonSearchStrategy: implement.strategy sets the search
// strategy of the job's own flow — bisect returns linear's per-block
// CFs in fewer tool runs — and a misspelled strategy dies at admission
// with the wire's message. Each strategy gets its own server, so
// neither job is served from the other's cache.
func TestDaemonSearchStrategy(t *testing.T) {
	ctx := context.Background()
	results := map[string]*apiv1.CompileResult{}
	for _, strategy := range []string{"linear", "bisect"} {
		s, c := newTestServer(t, serverConfig{Workers: 1})
		s.start()
		req := smallReq(1)
		req.Search = &apiv1.SearchWindow{Start: 0.5, Step: 0.02, Max: 3}
		req.Implement.Strategy = strategy
		final := submitAndWait(t, c, req)
		if final.State != apiv1.JobDone {
			t.Fatalf("%s job state = %s (%v)", strategy, final.State, final.Error)
		}
		res, err := c.Result(ctx, final.ID)
		if err != nil {
			t.Fatal(err)
		}
		results[strategy] = res
		s.drain()
	}
	linear, bisect := results["linear"], results["bisect"]
	for i := range linear.Blocks {
		if linear.Blocks[i].CF != bisect.Blocks[i].CF {
			t.Errorf("block %s: linear CF %.2f != bisect CF %.2f",
				linear.Blocks[i].Name, linear.Blocks[i].CF, bisect.Blocks[i].CF)
		}
	}
	if bisect.ToolRuns >= linear.ToolRuns {
		t.Errorf("bisect should need fewer tool runs: %d vs %d", bisect.ToolRuns, linear.ToolRuns)
	}

	s, c := newTestServer(t, serverConfig{Workers: 1})
	req := smallReq(1)
	req.Implement.Strategy = "quantum"
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.BaseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env apiv1.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	want := apiv1.Error{Code: apiv1.ErrInvalidOptions, Message: `unknown search strategy "quantum" (default, linear, bisect)`}
	if resp.StatusCode != http.StatusBadRequest || env.Error == nil || *env.Error != want {
		t.Errorf("quantum strategy: HTTP %d %+v, want 400 %+v", resp.StatusCode, env.Error, want)
	}
	if s.queue.Len() != 0 {
		t.Error("the misspelled request was queued")
	}
}

// call issues one request and decodes the error envelope of a non-2xx
// answer (nil for a 2xx one).
func call(t *testing.T, method, url string) (int, *apiv1.Error) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		return resp.StatusCode, nil
	}
	var env apiv1.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("%s %s: HTTP %d with no error envelope: %v", method, url, resp.StatusCode, err)
	}
	return resp.StatusCode, env.Error
}

// get fetches a 200 body.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d, %v: %s", url, resp.StatusCode, err, body)
	}
	return body
}

// jobRoutes are the per-job requests: status, result, events, cancel.
var jobRoutes = []struct{ method, suffix string }{
	{http.MethodGet, ""}, {http.MethodGet, "/result"}, {http.MethodGet, "/events"}, {http.MethodPost, "/cancel"},
}

// TestDaemonLiveSetBounded: the daemon keeps the last 4 × QueueCap
// finished jobs (8 here) and lets every older one go. Through ten times
// that many jobs, the jobs it holds and the block cache's bytes stay at
// what they were after the first eight; a job it still holds serves the
// result bytes and the event feed it served when it finished, the feed
// being json.Encoder's encoding of its events; an id it let go answers
// the typed gone (HTTP 410) on every route, through the client too.
func TestDaemonLiveSetBounded(t *testing.T) {
	cache, err := macroflow.NewPersistentBlockCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, c := newTestServer(t, serverConfig{Workers: 1, QueueCap: 2, Cache: cache})
	s.start()
	defer s.drain()
	ctx := context.Background()
	bound := retainFinished * 2
	jobs := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs)
	}

	type served struct{ result, events []byte }
	type level struct{ held, cacheBytes float64 }
	at := map[string]served{}
	var ids []string
	var levels []level
	for i := 1; i <= 10*bound; i++ {
		final := submitAndWait(t, c, smallReq(int64(i)))
		if final.State != apiv1.JobDone {
			t.Fatalf("job %d ended %s (%v)", i, final.State, final.Error)
		}
		base := c.BaseURL + "/v1/jobs/" + final.ID
		ids = append(ids, final.ID)
		at[final.ID] = served{get(t, base+"/result"), get(t, base+"/events")}
		if n := jobs(); n > bound {
			t.Fatalf("after %d jobs the daemon holds %d, want <= %d", i, n, bound)
		}
		if i == bound || i == 10*bound {
			samples := scrapeMetrics(t, c.BaseURL)
			held, _ := promFind(samples, "macroflowd_jobs_retained")
			mem, ok := promFind(samples, "blockcache_mem_bytes")
			if !ok || mem.Value <= 0 {
				t.Fatalf("blockcache_mem_bytes = %g (served %v), want the cache's bytes", mem.Value, ok)
			}
			levels = append(levels, level{held.Value, mem.Value})
		}
	}
	if levels[0] != levels[1] || levels[0].held != float64(bound) {
		t.Errorf("after %d jobs: %+v; after %d: %+v; want %d jobs held and the same cache bytes",
			bound, levels[0], 10*bound, levels[1], bound)
	}

	evicted := 0
	for _, id := range ids {
		base := c.BaseURL + "/v1/jobs/" + id
		if _, err := c.Job(ctx, id); err == nil {
			if !bytes.Equal(get(t, base+"/result"), at[id].result) {
				t.Errorf("%s: the result bytes changed after the job finished", id)
			}
			var events []apiv1.Event
			if err := c.Events(ctx, id, 0, func(ev apiv1.Event) error {
				events = append(events, ev)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			for _, ev := range events {
				enc.Encode(ev)
			}
			if got := get(t, base+"/events"); !bytes.Equal(got, at[id].events) || !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s: the event feed is not the one served at finish, encoded by json.Encoder", id)
			}
			if len(events) < 3 || events[len(events)-1].Name != apiv1.JobDone {
				t.Errorf("%s: %d events, the last %+v; want a feed ending done", id, len(events), events[len(events)-1])
			}
			continue
		}
		evicted++
		var ae *apiv1.Error
		if _, err := c.Job(ctx, id); !errors.As(err, &ae) || ae.Code != apiv1.ErrGone {
			t.Errorf("client Job(%s) = %v, want a typed %s", id, err, apiv1.ErrGone)
		}
		for _, r := range jobRoutes {
			if code, e := call(t, r.method, base+r.suffix); code != http.StatusGone || e == nil || e.Code != apiv1.ErrGone {
				t.Errorf("%s %s%s: HTTP %d %+v, want 410 %s", r.method, id, r.suffix, code, e, apiv1.ErrGone)
			}
		}
	}
	if want := 9 * bound; evicted != want || s.tel.rec.CounterValue(mJobsEvicted) != int64(want) {
		t.Errorf("%d jobs gone, macroflowd.jobs_evicted_total %d; want %d", evicted, s.tel.rec.CounterValue(mJobsEvicted), want)
	}
}

// TestServerTimeouts: the daemon's listener closes a connection that
// stalls mid-header and one idle between requests, and neither timeout
// cuts an /events stream that follows a job for longer than both.
func TestServerTimeouts(t *testing.T) {
	const header, idle = 200 * time.Millisecond, 300 * time.Millisecond
	s := newServer(serverConfig{Workers: 1, Logf: func(string, ...any) {}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := httpServer(s.routes(), header, idle)
	go hs.Serve(ln)
	defer hs.Close()
	addr := ln.Addr().String()

	// closed reports whether the server closes conn within 10 s.
	closed := func(conn net.Conn, r io.Reader) bool {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err := io.Copy(io.Discard, r)
		return err == nil // EOF: the server hung up
	}
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	fmt.Fprint(stalled, "GET /v1/healthz HTTP/1.1\r\nHost: macroflowd\r\n")
	if !closed(stalled, stalled) {
		t.Error("a connection stalled mid-header is still open 10 s on")
	}
	kept, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer kept.Close()
	fmt.Fprint(kept, "GET /v1/healthz HTTP/1.1\r\nHost: macroflowd\r\n\r\n")
	br := bufio.NewReader(kept)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !closed(kept, br) {
		t.Errorf("keep-alive connection: HTTP %d, then still open 10 s on; want 200, then closed when idle", resp.StatusCode)
	}

	// The job stays queued until the workers start, well past both
	// timeouts, while its feed streams.
	c := apiv1.NewClient("http://" + addr)
	job, err := c.Submit(context.Background(), smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var states []string
	started := make(chan struct{})
	go func() {
		time.Sleep(2 * (header + idle))
		s.start()
		close(started)
	}()
	err = c.Events(ctx, job.ID, 0, func(ev apiv1.Event) error {
		if ev.Type == "state" {
			states = append(states, ev.Name)
		}
		return nil
	})
	<-started
	s.drain()
	if want := []string{apiv1.JobQueued, apiv1.JobRunning, apiv1.JobDone}; err != nil || !slices.Equal(states, want) {
		t.Errorf("event stream across both timeouts: states %v, error %v; want %v, nil", states, err, want)
	}
}
