package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// runConfig is what one workload process is told.
type runConfig struct {
	seed  int64
	smoke bool   // 2 ops, 2 seeds, a toy estimator: a functional check, not a measurement
	root  string // the repository root (go.mod of module macroflow)
	tmp   string // a throw-away directory inside the checkout
}

// seedCycle is how many stitch seeds the ops cycle over.
func (c runConfig) seedCycle() int {
	if c.smoke {
		return 2
	}
	return 10
}

// layerOut collects layer metrics and the names left out because the
// build no longer knows the backend they address.
type layerOut struct {
	metrics map[string]metric
	absent  []string
}

func newLayerOut() *layerOut { return &layerOut{metrics: map[string]metric{}} }

// set records a metric; the unit comes from the catalogue.
func (l *layerOut) set(name string, value float64, n int, rounds []float64) {
	d, ok := defByName(perLayer, name)
	if !ok {
		panic("metric not in the catalogue: " + name)
	}
	l.metrics[name] = metric{Value: value, Unit: d.Unit, N: n, Rounds: rounds}
}

// workload is one benchmark scenario. The runner times setUp, repeats
// it after reset, and then drives warm-up, the untraced end-to-end
// phase, the layer probes and the traced phase.
type workload interface {
	// setUp prepares inputs and audited references. It is what setup_s
	// measures.
	setUp() error
	// reset undoes setUp so that it can run again.
	reset()
	// measure runs ops for the budget. With a tracer it performs the
	// decomposed replay (library workloads) or records client-side spans
	// (daemon) instead of the plain end-to-end op.
	measure(b budget, tr *tracer) (phase, error)
	// probes measures the layer metrics this workload owns.
	probes(reps int, out *layerOut) error
	// traced converts the spans of a traced phase into layer metrics.
	traced(tr *tracer, p phase, out *layerOut)
	// violations is the number of oracle violations seen so far.
	violations() int
	// close releases what setUp started; its error (a daemon that did
	// not drain cleanly) makes the run incorrect.
	close() error
}

func newWorkload(name string, cfg runConfig) (workload, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	switch name {
	case wlCNVCold, wlCNVWarm:
		return &cnvWorkload{cfg: cfg, warm: name == wlCNVWarm, seeds: deriveSeeds(rng, cfg.seedCycle())}, nil
	case wlStitchScale:
		return &stitchWorkload{cfg: cfg, seeds: deriveSeeds(rng, cfg.seedCycle()),
			problemSeeds: stitchProblemSeeds[:min(len(stitchProblemSeeds), cfg.seedCycle())]}, nil
	case wlDaemonDSE:
		return newDaemonWorkload(cfg, rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// libraryPhase runs a library workload's ops back to back from one
// caller, cycling over cycle stitch seeds. op returns the outcome with
// ms covering only the operation; check, run after the phase, verifies
// outputs outside the timed part.
func libraryPhase(b budget, cycle int, op func(i int, o *opOutcome) error, check func(i int, o *opOutcome) string) phase {
	p := phase{cycle: cycle}
	cpu0, start := selfCPUms(), time.Now()
	b.loop(func(i int) {
		o := opOutcome{seq: i}
		c0 := selfCPUms()
		if err := op(i, &o); err != nil {
			p.fail(&o, "op %d: %v", i, err)
		}
		o.cpuMs = selfCPUms() - c0
		o.doneS = time.Since(start).Seconds()
		p.ops = append(p.ops, o)
	})
	p.wallS = time.Since(start).Seconds()
	p.cpuMs = selfCPUms() - cpu0
	p.rssMB = peakRSSMB(0)
	for i := range p.ops {
		if p.ops[i].failed || check == nil {
			continue
		}
		if msg := check(i, &p.ops[i]); msg != "" {
			p.fail(&p.ops[i], "op %d: %s", i, msg)
		}
	}
	return p
}

// flowMetrics turns the replay's spans into flow.<layer>_ms: the mean
// self time per op of each named layer; the op and block spans' own
// time is "other". Layers the workload never enters are left out.
func flowMetrics(tr *tracer, out *layerOut) {
	perOp := selfByName(tr.snapshot())
	sums := map[string]float64{}
	for _, byName := range perOp {
		for name, ms := range byName {
			if name == "op" || name == "block" {
				name = "other"
			}
			sums[name] += ms
		}
	}
	for _, l := range flowLayers {
		if ms, ok := sums[l]; ok {
			out.set("flow."+l+"_ms", ms/float64(len(perOp)), len(perOp), nil)
		}
	}
}

// qualityMetrics reports the traced run's deterministic outcomes.
func qualityMetrics(p phase, out *layerOut) {
	m := endToEndMetrics(p, nil)
	for _, name := range []string{"tool_runs_per_op", "unplaced_per_op", "fail_share"} {
		out.set(name, m[name].Value, m[name].N, nil)
	}
}

// --- cnv-cold and cnv-warm ------------------------------------------------

const cnvBlocks = 74

type cnvWorkload struct {
	cfg      runConfig
	warm     bool
	seeds    []int64
	refs     []digest
	cacheDir string
	viol     int
	lastHits [2]int // mem, disk hits of the last warm op
}

func (w *cnvWorkload) violations() int { return w.viol }
func (w *cnvWorkload) close() error    { w.reset(); return nil }

// setUp compiles every stitch seed once with the oracle on — the first
// compile cold with every block audited, the rest served from the cache
// the first one filled, each stitch audited — and keeps the digests as
// references. On cnv-warm the cache is the persistent one, so set-up is
// also the write path of the cache the ops read.
func (w *cnvWorkload) setUp() error {
	cache := newMemCache()
	if w.warm {
		w.cacheDir = filepath.Join(w.cfg.tmp, "blockcache")
		var err error
		if cache, err = openDiskCache(w.cacheDir); err != nil {
			return err
		}
	}
	w.refs = w.refs[:0]
	toolRuns := 0
	for k, seed := range w.seeds {
		out, err := cnvCompile(seed, cache, true, k == 0)
		if err != nil {
			return err
		}
		if out.Checks == 0 {
			return fmt.Errorf("reference compile %d ran no oracle check", k)
		}
		w.viol += out.Violations
		if out.Violations > 0 {
			return fmt.Errorf("reference compile %d: %d oracle violations", k, out.Violations)
		}
		if k == 0 {
			// Five block types share their netlist with another and are
			// served from the cache even in this cold compile; the
			// reference counts their searches as a cacheless op pays them.
			toolRuns = out.BlockRuns
		}
		out.digest.ToolRuns = toolRuns
		w.refs = append(w.refs, out.digest)
	}
	return nil
}

func (w *cnvWorkload) reset() {
	if w.cacheDir != "" {
		os.RemoveAll(w.cacheDir)
	}
}

// expect is the digest an op on stitch seed k must reproduce: the cold
// reference, with no tool runs when the cache serves every block.
func (w *cnvWorkload) expect(k int) digest {
	d := w.refs[k]
	if w.warm {
		d.ToolRuns = 0
	}
	return d
}

func (w *cnvWorkload) measure(b budget, tr *tracer) (phase, error) {
	got := map[int]digest{}
	op := func(i int, o *opOutcome) error {
		seed := w.seeds[i%len(w.seeds)]
		t0 := time.Now()
		var d digest
		var err error
		switch {
		case tr != nil:
			d, err = cnvReplay(tr, i, seed, w.cacheDir)
		case w.warm:
			// A fresh cache object per op: memory cold, disk warm, as in
			// a new `rwflow -cache` process.
			var cache blockCache
			if cache, err = openDiskCache(w.cacheDir); err == nil {
				var out cnvOut
				out, err = cnvCompile(seed, cache, false, false)
				d, w.lastHits = out.digest, [2]int{out.MemHits, out.DiskHits}
			}
		default:
			var out cnvOut
			out, err = cnvCompile(seed, blockCache{}, false, false)
			d = out.digest
		}
		o.ms = float64(time.Since(t0).Nanoseconds()) / 1e6
		o.toolRuns, o.unplaced, o.cost = float64(d.ToolRuns), float64(d.Unplaced), d.cost()
		got[i] = d
		return err
	}
	check := func(i int, o *opOutcome) string {
		want := w.expect(i % len(w.seeds))
		if d := got[i]; !d.sameResult(want) || d.ToolRuns != want.ToolRuns {
			return fmt.Sprintf("digest differs from the audited reference (tool runs %d/%d, unplaced %d/%d, cost %v/%v)",
				d.ToolRuns, want.ToolRuns, d.Unplaced, want.Unplaced, d.FinalCost, want.FinalCost)
		}
		return ""
	}
	return libraryPhase(b, len(w.seeds), op, check), nil
}

func (w *cnvWorkload) traced(tr *tracer, p phase, out *layerOut) {
	flowMetrics(tr, out)
	qualityMetrics(p, out)
}

func (w *cnvWorkload) probes(reps int, out *layerOut) error {
	fix, err := newFixture(true)
	if err != nil {
		return err
	}
	if w.warm {
		out.set("cache.mem_hit_share", float64(w.lastHits[0])/cnvBlocks, cnvBlocks, nil)
		out.set("cache.disk_hit_share", float64(w.lastHits[1])/cnvBlocks, cnvBlocks, nil)
		if err := probeCache(fix, w.cfg.tmp, reps, out); err != nil {
			return err
		}
		probeCNVStitch(fix, w.seeds, reps, out)
		return nil
	}
	v, err := probeBlockLayers(fix, reps, out)
	w.viol += v
	return err
}

// --- stitch-scale ---------------------------------------------------------

// The stitch-scale op and the crossover matrix share one budget.
const (
	stitchScale  = 10
	stitchMoves  = 40000
	stitchChains = 4
	opBackend    = "hybrid"
)

type stitchWorkload struct {
	cfg          runConfig
	seeds        []int64
	problemSeeds []int64
	probs        []stitchProblem
	refs         []stitchRun
	viol         int
}

// stitchProblemSeeds generate the synthetic problems the ops cycle over.
// The problem set is part of the workload, like the cnvW1A1 design of
// the cnv workloads, and does not vary with the run seed, which draws
// the stitch seeds: a problem's cost level and move time depend on its
// draw by about 10%, so seeded problems would make stitch_cost_per_op
// and op_ms_p50 of two seeds incomparable. Cycling over five keeps the
// numbers from hinging on one draw.
var stitchProblemSeeds = []int64{1, 2, 3, 4, 5}

func (w *stitchWorkload) violations() int { return w.viol }
func (w *stitchWorkload) close() error    { return nil }
func (w *stitchWorkload) reset()          {}

// problem is the one op k of the seed cycle stitches.
func (w *stitchWorkload) problem(k int) stitchProblem { return w.probs[k%len(w.probs)] }

// setUp generates the problems and runs every (problem, stitch seed)
// pair of the cycle once under the oracle; ops must reproduce these
// results bit for bit.
func (w *stitchWorkload) setUp() error {
	w.probs, w.refs = w.probs[:0], w.refs[:0]
	for _, seed := range w.problemSeeds {
		w.probs = append(w.probs, synthetic(stitchScale, seed))
	}
	for k, seed := range w.seeds {
		run, ok := runStitch(w.problem(k), opBackend, stitchMoves, stitchChains, seed)
		if !ok {
			return fmt.Errorf("stitch backend %q is not in this build", opBackend)
		}
		if v := auditStitch(w.problem(k), run); v > 0 {
			w.viol += v
			return fmt.Errorf("reference stitch (seed %d): %d oracle violations", seed, v)
		}
		w.refs = append(w.refs, run)
	}
	return nil
}

// measure compares every result with its seed's audited reference,
// origins included, and drops it: results kept across the phase would
// make peak_rss_mb grow with the op count. The last result of each
// seed-cycle slot is kept and re-audited by the oracle after the phase.
func (w *stitchWorkload) measure(b budget, tr *tracer) (phase, error) {
	last := make([]stitchRun, len(w.seeds))
	op := func(i int, o *opOutcome) error {
		k := i % len(w.seeds)
		root, child := -1, -1
		if tr != nil {
			root = tr.start(i, -1, "op")
			child = tr.start(i, root, "stitch")
		}
		t0 := time.Now()
		run, _ := runStitch(w.problem(k), opBackend, stitchMoves, stitchChains, w.seeds[k])
		o.ms = float64(time.Since(t0).Nanoseconds()) / 1e6
		if tr != nil {
			tr.end(child)
			tr.end(root)
		}
		o.unplaced, o.cost = float64(run.Unplaced), run.Cost
		last[k] = run
		if !run.same(w.refs[k]) {
			return fmt.Errorf("cost %v, reference %v, or other origins", run.FinalCost, w.refs[k].FinalCost)
		}
		return nil
	}
	p := libraryPhase(b, len(w.seeds), op, nil)
	for k, run := range last {
		if run.res != nil {
			w.viol += auditStitch(w.problem(k), run)
		}
	}
	return p, nil
}

func (w *stitchWorkload) traced(tr *tracer, p phase, out *layerOut) {
	flowMetrics(tr, out)
	qualityMetrics(p, out)
}

func (w *stitchWorkload) probes(reps int, out *layerOut) error {
	v, err := probeStitchMatrix(w.probs[0], w.seeds[0], w.problemSeeds[0], reps, out)
	w.viol += v
	return err
}
