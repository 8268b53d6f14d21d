package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	apiv1 "macroflow/api/v1"
)

// The daemon-dse load: closed-loop clients that each submit a batch of
// jobs and wait for all of them. Batches of 4 on 2 workers keep a queue
// (the wait is measurable) without an open-loop rate that stops biting
// once the service gets faster.
const (
	daemonWorkers = 2
	daemonQueue   = 64
	dseClients    = 2 // <= nproc on the 2-core reference box
	batchJobs     = 4
	pollEvery     = 2 * time.Millisecond
	jobTimeout    = 60 * time.Second
	dseMoves      = 40000 // anneal budget of the pipeline variants
	pipelineFan   = 12    // workers per pipeline (examples/incremental)
	// macroflowd keeps every finished job, so its resident set grows with
	// the job count, and under --seconds the job count grows with its
	// speed. peak_rss_mb is therefore read at a fixed point: when the first
	// client has finished rssBatches batches of the phase (about 512 jobs;
	// a 20-s run does about 1 200), or at the end of a shorter phase.
	rssBatches = 64
)

// --- job generator --------------------------------------------------------

// variantSpace is the number of distinct worker blocks the generator
// can produce; a run that needs more stops with an error instead of
// wrapping around into cache hits.
const (
	variantDim   = 48
	variantSpace = variantDim * variantDim
	repeatSIMD   = 8 // outside the novel range [16, 16+variantDim)
)

// variantParams maps a variant number onto the worker block's SIMD
// width and shift-register length. The map is a bijection on
// [0, variantSpace): distinct numbers give distinct blocks, and every
// aligned run of 48 numbers covers every value of both parameters, so a
// run sees nearly the same mix of block sizes whatever its offset.
func variantParams(id int) (simd, srLen int) {
	a, q := id%variantDim, id/variantDim
	b := (q + 11*a) % variantDim
	return 16 + a, 8 + b
}

// pipelineRequest is an examples/incremental-style design — source ->
// 12 workers -> sink — whose worker block is the part being explored.
func pipelineRequest(worker string, simd, srLen int, stitchSeed int64) *apiv1.CompileRequest {
	d := apiv1.DesignSpec{
		Blocks: []apiv1.BlockSpec{
			{Name: "source", Components: []apiv1.ComponentSpec{
				{Kind: apiv1.CompLogic, LUTs: 120, Fanin: 4, Depth: 3},
				{Kind: apiv1.CompShiftRegs, Count: 4, Length: 8, ControlSets: 1, Fanin: 2}}},
			{Name: worker, Components: []apiv1.ComponentSpec{
				{Kind: apiv1.CompLogic, LUTs: 4 * simd, Fanin: 5, Depth: 3},
				{Kind: apiv1.CompSumOfSquares, Width: 8, Terms: 4},
				{Kind: apiv1.CompShiftRegs, Count: 8, Length: srLen, ControlSets: 2, Fanin: 2},
				{Kind: apiv1.CompMemory, Width: simd / 4, Depth: 64}}},
			{Name: "sink", Components: []apiv1.ComponentSpec{
				{Kind: apiv1.CompLogic, LUTs: 90, Fanin: 4, Depth: 2},
				{Kind: apiv1.CompSumOfSquares, Width: 6, Terms: 1}}},
		},
		Instances: []apiv1.InstanceSpec{{Name: "source", Block: 0}, {Name: "sink", Block: 2}},
	}
	for i := 0; i < pipelineFan; i++ {
		d.Instances = append(d.Instances, apiv1.InstanceSpec{Name: fmt.Sprintf("worker_%d", i), Block: 1})
		d.Nets = append(d.Nets, apiv1.NetSpec{From: 0, To: 2 + i, Width: 32}, apiv1.NetSpec{From: 2 + i, To: 1, Width: 16})
	}
	return &apiv1.CompileRequest{
		Design: d,
		Mode:   apiv1.ModeSpec{Kind: "estimator"},
		Search: &apiv1.SearchWindow{Start: 0.9, Step: 0.02, Max: 3.0},
		Stitch: apiv1.StitchParams{Seed: stitchSeed, Anneal: &apiv1.AnnealParams{Iterations: dseMoves}},
	}
}

func builtinRequest(stitchSeed int64) *apiv1.CompileRequest {
	return &apiv1.CompileRequest{
		Design: apiv1.DesignSpec{Builtin: apiv1.BuiltinCNVW1A1},
		Stitch: apiv1.StitchParams{Seed: stitchSeed, Anneal: &apiv1.AnnealParams{Iterations: cnvMoves}},
	}
}

// Job kinds of a batch.
const (
	kindBuiltin = "builtin" // cnvW1A1, blocks warm in the shared cache
	kindNovel   = "novel"   // a worker block never seen before
	kindRepeat  = "repeat"  // the variant compiled in warm-up
)

// dseJob is one generated job: its kind, the exact request body, and
// the key of the reference bytes its result must equal ("" for novel
// jobs, which have no precomputed reference).
type dseJob struct {
	kind string
	body []byte
	ref  string
}

// dseGenerator derives every job of a run from the run seed.
type dseGenerator struct {
	seed        int64
	stitchSeeds []int64
	offset      int // where in the variant space this run starts
}

func newDSEGenerator(seed int64, rng *rand.Rand, cycle int) *dseGenerator {
	return &dseGenerator{seed: seed, stitchSeeds: deriveSeeds(rng, cycle), offset: rng.Intn(variantSpace)}
}

func (g *dseGenerator) repeatRequest() *apiv1.CompileRequest {
	return pipelineRequest("worker_repeat", repeatSIMD, 8, g.stitchSeeds[0])
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// batch generates the jobs of one batch. Batches are numbered across
// the run and the clients (number = round*clients + client), which
// makes every novel variant number unique within the run.
func (g *dseGenerator) batch(number int) ([]dseJob, error) {
	if (number+1)*2 > variantSpace {
		return nil, fmt.Errorf("variant space exhausted after %d batches", number)
	}
	seed := g.stitchSeeds[number%len(g.stitchSeeds)]
	jobs := []dseJob{
		{kind: kindBuiltin, body: mustJSON(builtinRequest(seed)), ref: "builtin/" + strconv.FormatInt(seed, 10)},
		{kind: kindRepeat, body: mustJSON(g.repeatRequest()), ref: "repeat"},
	}
	for slot := 0; slot < 2; slot++ {
		id := (g.offset + number*2 + slot) % variantSpace
		simd, srLen := variantParams(id)
		jobs = append(jobs, dseJob{kind: kindNovel,
			body: mustJSON(pipelineRequest(fmt.Sprintf("worker_v%d", id), simd, srLen, seed))})
	}
	// Job order within the batch derives from the seed too.
	rng := rand.New(rand.NewSource(g.seed ^ int64(number+1)*0x9E3779B97F4A7C))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

// --- daemon process -------------------------------------------------------

// daemonProc is a running macroflowd child.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
	log  chan string // the stderr after the listen line, delivered at EOF
}

// buildDaemon compiles cmd/macroflowd from the checkout's sources.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "macroflowd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/macroflowd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/macroflowd: %v\n%s", err, out)
	}
	return bin, nil
}

// startDaemon launches macroflowd on a random port with a throw-away
// cache directory and parses the port from its log.
func startDaemon(bin, cacheDir, estimator string) (*daemonProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(daemonWorkers), "-queue", strconv.Itoa(daemonQueue),
		"-cache", cacheDir, "-estimator", estimator, "-flight-dir", cacheDir)
	// The child must not outlive the harness, however the harness exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &daemonProc{cmd: cmd, log: make(chan string, 1)}
	sc := bufio.NewScanner(stderr)
	var seen []string
	for sc.Scan() {
		line := sc.Text()
		seen = append(seen, line)
		if i := strings.Index(line, "listening on "); i >= 0 {
			p.addr = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if p.addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("macroflowd never reported its listen address:\n%s", strings.Join(seen, "\n"))
	}
	go func() {
		var rest strings.Builder
		for sc.Scan() {
			rest.WriteString(sc.Text() + "\n")
		}
		p.log <- rest.String()
	}()
	return p, nil
}

func (p *daemonProc) pid() int { return p.cmd.Process.Pid }

// stop drains the daemon with SIGTERM and verifies the clean-drain log
// line; a daemon that does not exit in time is killed.
func (p *daemonProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return err
	}
	done := make(chan error, 1)
	go func() {
		log := <-p.log // read stderr to EOF before Wait closes the pipe
		err := p.cmd.Wait()
		if err == nil && !strings.Contains(log, "drained cleanly") {
			err = fmt.Errorf("macroflowd exited without logging a clean drain:\n%s", log)
		}
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return errors.New("macroflowd did not drain within 30 s of SIGTERM; killed")
	}
}

func (p *daemonProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// --- HTTP client ----------------------------------------------------------

// dseClient is one closed-loop client on its own single connection.
type dseClient struct {
	base string
	http *http.Client
}

func newDSEClient(addr string) *dseClient {
	return &dseClient{base: "http://" + addr, http: &http.Client{
		Timeout:   jobTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *dseClient) do(method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

func (c *dseClient) submit(body []byte) (*apiv1.JobStatus, error) {
	data, code, err := c.do(http.MethodPost, apiv1.PathPrefix+"/jobs", body)
	if err != nil {
		return nil, err
	}
	if code/100 != 2 {
		return nil, fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	var st apiv1.JobStatus
	return &st, json.Unmarshal(data, &st)
}

func (c *dseClient) status(id string) (*apiv1.JobStatus, error) {
	data, code, err := c.do(http.MethodGet, apiv1.PathPrefix+"/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	if code/100 != 2 {
		return nil, fmt.Errorf("status %s: HTTP %d", id, code)
	}
	var st apiv1.JobStatus
	return &st, json.Unmarshal(data, &st)
}

func (c *dseClient) result(id string) ([]byte, error) {
	data, code, err := c.do(http.MethodGet, apiv1.PathPrefix+"/jobs/"+id+"/result", nil)
	if err == nil && code/100 != 2 {
		err = fmt.Errorf("result %s: HTTP %d", id, code)
	}
	return data, err
}

func (c *dseClient) stats() (*apiv1.ServerStats, error) {
	data, _, err := c.do(http.MethodGet, apiv1.PathPrefix+"/stats", nil)
	if err != nil {
		return nil, err
	}
	var st apiv1.ServerStats
	return &st, json.Unmarshal(data, &st)
}

// promSums scrapes GET /metrics and returns the sample values keyed by
// the full sample name, labels included.
func (c *dseClient) promSamples() (map[string]float64, error) {
	data, _, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return parseProm(data), nil
}

// parseProm reads the "name{labels} value" lines of a Prometheus text
// exposition.
func parseProm(data []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// --- workload -------------------------------------------------------------

// jobRecord is everything observed about one job.
type jobRecord struct {
	job       dseJob
	seq       int // batch number * batchJobs + position in the batch
	id        string
	submitted time.Time // just before the POST
	submitMs  float64   // POST round trip
	done      time.Time // first poll that saw a terminal state
	fetchMs   float64
	final     *apiv1.JobStatus
	raw       []byte
	err       error
}

type daemonWorkload struct {
	cfg  runConfig
	gen  *dseGenerator
	bin  string
	dir  string // estimator file and cache directory live here
	proc *daemonProc
	refs map[string][]byte
	// nextRound numbers batches across warm-up and phases, so novel
	// variants never repeat within a run.
	nextRound int
	warm      bool // the shared cache holds the builtin and repeat blocks
	viol      int
	records   []jobRecord // the jobs of the last traced phase
}

func newDaemonWorkload(cfg runConfig, rng *rand.Rand) *daemonWorkload {
	return &daemonWorkload{cfg: cfg, gen: newDSEGenerator(cfg.seed, rng, cfg.seedCycle()),
		dir: filepath.Join(cfg.tmp, "daemon")}
}

func (w *daemonWorkload) violations() int { return w.viol }

func (w *daemonWorkload) trainSize() (modules, trees int) {
	if w.cfg.smoke {
		return 40, 10
	}
	return trainModules, trainTrees
}

// setUp is the one-time estimator investment plus bringing the service
// up: train and save the estimator, start a fresh daemon on it, compute
// the reference bytes in process, and run the warm-up batch that fills
// the shared cache with the cnvW1A1 blocks and the repeat variant.
func (w *daemonWorkload) setUp() error {
	if w.bin == "" {
		return errors.New("daemon binary not built")
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	estPath := filepath.Join(w.dir, "estimator.json")
	modules, trees := w.trainSize()
	if err := trainEstimator(modules, trees, estPath); err != nil {
		return err
	}
	var err error
	if w.proc, err = startDaemon(w.bin, filepath.Join(w.dir, "cache"), estPath); err != nil {
		return err
	}
	if err := w.references(estPath); err != nil {
		return err
	}
	// The warm-up batch holds the first, cold compile of the builtin and
	// the repeat jobs; their bytes equal the references from then on.
	w.nextRound, w.warm = 0, false
	p, err := w.runBatches(budget{ops: batchJobs}, 1, nil)
	w.warm = true
	if err != nil {
		return err
	}
	if n := p.failed(); n > 0 {
		return fmt.Errorf("warm-up batch: %d of %d jobs failed: %s", n, len(p.ops), strings.Join(p.errors, "; "))
	}
	return nil
}

// references compiles, in process, what the daemon must answer: the
// builtin job once per stitch seed from a warm cache, and the repeat
// variant's second compile.
func (w *daemonWorkload) references(estPath string) error {
	est, err := loadEstimator(estPath)
	if err != nil {
		return err
	}
	w.refs = map[string][]byte{}
	cache := newMemCache()
	if _, err := localResult(builtinRequest(w.gen.stitchSeeds[0]), est, cache); err != nil {
		return err
	}
	for _, seed := range w.gen.stitchSeeds {
		if w.refs["builtin/"+strconv.FormatInt(seed, 10)], err = localResult(builtinRequest(seed), est, cache); err != nil {
			return err
		}
	}
	cache = newMemCache()
	if _, err := localResult(w.gen.repeatRequest(), est, cache); err != nil {
		return err
	}
	w.refs["repeat"], err = localResult(w.gen.repeatRequest(), est, cache)
	return err
}

func (w *daemonWorkload) reset() {
	if w.proc != nil {
		w.proc.kill()
		w.proc = nil
	}
	os.RemoveAll(w.dir)
}

// close drains the daemon with SIGTERM; a drain that is not clean is
// the error.
func (w *daemonWorkload) close() error {
	var err error
	if w.proc != nil {
		err = w.proc.stop()
		w.proc = nil
	}
	os.RemoveAll(w.dir)
	return err
}

func (w *daemonWorkload) measure(b budget, tr *tracer) (phase, error) {
	return w.runBatches(b, dseClients, tr)
}

// runBatches drives the closed loop: every client repeatedly submits a
// batch of 4 jobs and waits for all 4. An op budget counts jobs.
func (w *daemonWorkload) runBatches(b budget, clients int, tr *tracer) (phase, error) {
	rounds := 0
	if b.ops > 0 {
		rounds = (b.ops + batchJobs*clients - 1) / (batchJobs * clients)
	}
	perClient := make([][]jobRecord, clients)
	errs := make([]error, clients)
	pid := w.proc.pid()
	cpu0, start := procCPUms(pid), time.Now()
	rssMB := 0.0 // written by client 0 only, read after wg.Wait
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newDSEClient(w.proc.addr)
			defer cl.http.CloseIdleConnections()
			budget{ops: rounds, seconds: b.seconds}.loop(func(round int) {
				if errs[c] != nil {
					return
				}
				if c == 0 && round == rssBatches {
					rssMB = peakRSSMB(pid)
				}
				number := (w.nextRound+round)*clients + c
				jobs, err := w.gen.batch(number)
				if err != nil {
					errs[c] = err
					return
				}
				recs := runBatch(cl, jobs)
				for i := range recs {
					recs[i].seq = number*batchJobs + i
				}
				perClient[c] = append(perClient[c], recs...)
			})
		}(c)
	}
	wg.Wait()
	var p phase // cycle 0: novel variants never repeat
	p.wallS = time.Since(start).Seconds()
	p.cpuMs = procCPUms(pid) - cpu0
	if p.rssMB = rssMB; rssMB == 0 {
		p.rssMB = peakRSSMB(pid)
	}
	most := 0
	var records []jobRecord
	for c := range perClient {
		if errs[c] != nil {
			return p, errs[c]
		}
		if n := len(perClient[c]) / batchJobs; n > most {
			most = n
		}
		records = append(records, perClient[c]...)
	}
	w.nextRound += most
	sort.SliceStable(records, func(i, j int) bool { return records[i].done.Before(records[j].done) })
	for i := range records {
		r := &records[i]
		o := opOutcome{seq: r.seq}
		o.ms = float64(r.done.Sub(r.submitted).Nanoseconds()) / 1e6
		o.doneS = r.done.Sub(start).Seconds()
		if msg := w.verify(r, &o); msg != "" {
			p.fail(&o, "job %s (%s): %s", r.id, r.job.kind, msg)
		}
		p.ops = append(p.ops, o)
	}
	if tr != nil {
		w.records = records
	}
	return p, nil
}

// runBatch submits the jobs one after the other, polls all of them
// every 2 ms until each has finished, then fetches the results.
func runBatch(cl *dseClient, jobs []dseJob) []jobRecord {
	recs := make([]jobRecord, len(jobs))
	pending := 0
	for i, j := range jobs {
		r := &recs[i]
		r.job, r.submitted = j, time.Now()
		st, err := cl.submit(j.body)
		r.submitMs = float64(time.Since(r.submitted).Nanoseconds()) / 1e6
		if err != nil {
			r.err, r.done = err, time.Now()
			continue
		}
		r.id = st.ID
		pending++
	}
	for pending > 0 {
		time.Sleep(pollEvery)
		for i := range recs {
			r := &recs[i]
			if r.id == "" || !r.done.IsZero() {
				continue
			}
			st, err := cl.status(r.id)
			now := time.Now()
			switch {
			case err != nil:
				r.err = err
			case st.State == apiv1.JobDone || st.State == apiv1.JobFailed || st.State == apiv1.JobCanceled:
				r.final = st
			case now.Sub(r.submitted) > jobTimeout:
				r.err = fmt.Errorf("not finished after %s", jobTimeout)
			default:
				continue
			}
			r.done = now
			pending--
		}
	}
	for i := range recs {
		r := &recs[i]
		if r.err != nil || r.final.State != apiv1.JobDone {
			continue
		}
		t0 := time.Now()
		r.raw, r.err = cl.result(r.id)
		r.fetchMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return recs
}

// verify checks one finished job and fills in its quality numbers.
func (w *daemonWorkload) verify(r *jobRecord, o *opOutcome) string {
	if r.err != nil {
		return r.err.Error()
	}
	if r.final.State != apiv1.JobDone {
		return fmt.Sprintf("state %s (%v)", r.final.State, r.final.Error)
	}
	var res apiv1.CompileResult
	if err := json.Unmarshal(r.raw, &res); err != nil {
		return "result does not decode: " + err.Error()
	}
	if res.Stitch == nil {
		return "result has no stitch section"
	}
	o.toolRuns = float64(res.ToolRuns)
	o.unplaced = float64(res.Stitch.Unplaced)
	o.cost = stitchObjective(res.Stitch.FinalCost, res.Stitch.Unplaced)
	if r.job.ref != "" {
		if w.warm && !bytes.Equal(r.raw, w.refs[r.job.ref]) {
			return "result bytes differ from the in-process compile"
		}
		return ""
	}
	if len(res.Blocks) != 3 || res.Stitch.Placed+res.Stitch.Unplaced != pipelineFan+2 {
		return fmt.Sprintf("novel variant came back with %d blocks, %d instances",
			len(res.Blocks), res.Stitch.Placed+res.Stitch.Unplaced)
	}
	return ""
}

// traced records the traced phase's client-side spans — per job:
// submit, queue and run (from the job's server timestamps) and fetch —
// and reports them with the service's own view over /v1/stats and
// /metrics as the daemon.* metrics.
func (w *daemonWorkload) traced(tr *tracer, p phase, out *layerOut) {
	var submit, queue, run, fetch []float64
	for i, r := range w.records {
		if r.final == nil || r.err != nil {
			continue
		}
		queueMs, runMs := r.final.StartedMs-r.final.SubmittedMs, r.final.FinishedMs-r.final.StartedMs
		submit, fetch = append(submit, r.submitMs), append(fetch, r.fetchMs)
		queue, run = append(queue, float64(queueMs)), append(run, float64(runMs))
		at := func(t time.Time) int64 { return t.Sub(tr.epoch).Nanoseconds() }
		fetchEnd := r.done.Add(time.Duration(r.fetchMs * 1e6))
		root := tr.add(i, -1, "op", at(r.submitted), at(fetchEnd))
		// Server timestamps are whole milliseconds; anchor them at the
		// end of the submit round trip.
		sub := at(r.submitted) + int64(r.submitMs*1e6)
		tr.add(i, root, "submit", at(r.submitted), sub)
		tr.add(i, root, "queue", sub, sub+queueMs*1e6)
		tr.add(i, root, "run", sub+queueMs*1e6, sub+(queueMs+runMs)*1e6)
		tr.add(i, root, "fetch", at(r.done), at(fetchEnd))
	}
	n := len(submit)
	out.set("daemon.submit_rtt_ms_p50", median(submit), n, nil)
	out.set("daemon.queue_wait_ms_p50", median(queue), n, nil)
	out.set("daemon.queue_wait_ms_p90", percentile(queue, 0.90), n, nil)
	out.set("daemon.run_ms_p50", median(run), n, nil)
	out.set("daemon.run_ms_p90", percentile(run, 0.90), n, nil)
	out.set("daemon.fetch_ms_p50", median(fetch), n, nil)
	out.set("daemon.worker_busy_share", mean(run)*float64(n)/1e3/(daemonWorkers*p.wallS), n, nil)

	cl := newDSEClient(w.proc.addr)
	defer cl.http.CloseIdleConnections()
	if st, err := cl.stats(); err == nil {
		out.set("daemon.rejected", float64(st.Rejected), 1, nil)
		out.set("cache.singleflight_hits", float64(st.Cache.SingleflightHits), 1, nil)
		if st.Telemetry != nil {
			out.set("daemon.queue_depth_peak", float64(st.Telemetry.QueueDepthPeak), 1, nil)
		}
	}
	if samples, err := cl.promSamples(); err == nil {
		for _, stage := range []string{"synth", "place", "mincf", "stitch"} {
			label := fmt.Sprintf(`{stage="%s"}`, stage)
			if count := samples["macroflowd_stage_latency_ms_count"+label]; count > 0 {
				out.set("daemon.stage_ms."+stage, samples["macroflowd_stage_latency_ms_sum"+label]/count, int(count), nil)
			}
		}
	}
	// Of the replay's layers only "other" applies: what a job's latency
	// holds beyond submit, queue, run and fetch is polling slack, the op
	// span's own time.
	flowMetrics(tr, out)
	qualityMetrics(p, out)
}

func (w *daemonWorkload) probes(reps int, out *layerOut) error {
	modules, trees := w.trainSize()
	if err := probeEstimator(modules, trees, reps, out); err != nil {
		return err
	}
	return probeAPI(w.gen, reps, out)
}
