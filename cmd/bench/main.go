// Command bench is macroflow's benchmark harness: four named workloads,
// ten end-to-end metrics reported uniformly on each, and per-layer
// metrics obtained from outside — by timing calls into each layer's
// public functions and the daemon's public HTTP surface — plus a traced
// run that attributes each operation's time to layers. It claims no
// gain; it is the ruler. See README.md.
//
//	bench run [-seed N] [-out results.json] [-smoke]   every workload, each in its own child process
//	bench diff A.json B.json                           gate B against A
//	bench selfcheck [-seed N]                          two full sets on this build, diffed
//	bench schema                                       print BENCHMARK.json from the catalogue
//	bench --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line (BENCHMARK.json's command)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch cmd := os.Args[1]; {
	case cmd == "run":
		err = cmdRun(os.Args[2:])
	case cmd == "diff":
		err = cmdDiff(os.Args[2:])
	case cmd == "selfcheck":
		err = cmdSelfcheck(os.Args[2:])
	case cmd == "schema":
		_, err = os.Stdout.Write(benchmarkJSON())
	case strings.HasPrefix(cmd, "-"):
		err = cmdWorkload(os.Args[1:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bench run|diff|selfcheck|schema ...  or  bench --workload W --seed N --seconds S --trace 0|1")
	os.Exit(2)
}

// runMode selects which phases a workload process runs.
type runMode int

const (
	// modeFull is `bench run`: end-to-end phase, layer probes and traced
	// phase in one process.
	modeFull runMode = iota
	// modeEndToEnd is the driver's --trace 0: the untraced phase only.
	modeEndToEnd
	// modeTrace is the driver's --trace 1: a short untraced phase (the
	// baseline of trace.overhead_share), the probes and the traced phase.
	modeTrace
)

const (
	warmupOps   = 3   // discarded before measuring
	tracedShare = 0.2 // the traced run repeats this share of the ops
	probeReps   = 5
	// A workload process that hangs (a daemon that never answers, a job
	// that never finishes) ends itself: `bench run`'s long phases get
	// fullTimeout, a driver run stays inside the driver's 180 s.
	fullTimeout   = 15 * time.Minute
	driverTimeout = 170 * time.Second
)

// repoRoot finds the checkout's root: the directory whose go.mod
// declares module macroflow, at or above the working directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(strings.TrimSpace(string(data)), "module macroflow\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no macroflow checkout at or above the working directory")
		}
		dir = parent
	}
}

// runWorkload runs one workload in this process.
func runWorkload(def workloadDef, cfg runConfig, mode runMode, b budget) (*workloadResult, error) {
	limit := driverTimeout
	if mode == modeFull {
		limit = fullTimeout
	}
	timeout := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s did not finish within %s\n", def.Name, limit)
		os.Exit(1) // the daemon child dies with us (Pdeathsig)
	})
	defer timeout.Stop()
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.tmp)
	w, err := newWorkload(def.Name, cfg)
	if err != nil {
		return nil, err
	}
	if d, ok := w.(*daemonWorkload); ok {
		// Building the program under test is not set-up time.
		if d.bin, err = buildDaemon(cfg.root); err != nil {
			return nil, err
		}
	}
	closed := false
	defer func() {
		if !closed {
			w.close()
		}
	}()

	setups, reps, warm, minTraced := def.SetupReps, probeReps, warmupOps, 10
	if mode == modeTrace {
		setups, reps = 1, 3
	}
	if cfg.smoke {
		setups, reps, warm, minTraced = 1, 1, 1, 2
	}
	var setupS []float64
	for r := 0; r < setups; r++ {
		if r > 0 {
			w.reset()
		}
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.Name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	if _, err := w.measure(budget{ops: warm}, nil); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", def.Name, err)
	}

	res := &workloadResult{Name: def.Name, PerLayer: map[string]metric{}}
	tally := func(p phase) {
		res.Attempted += len(p.ops)
		res.Failed += p.failed()
		res.Notes = append(res.Notes, p.errors...)
	}
	base := b
	if mode == modeTrace {
		base = b.share(tracedShare, minTraced)
	}
	plain, err := w.measure(base, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	tally(plain)
	res.Ops = len(plain.ops)
	res.EndToEnd = endToEndMetrics(plain, setupS)

	if mode != modeEndToEnd {
		out := newLayerOut()
		if err := w.probes(reps, out); err != nil {
			return nil, fmt.Errorf("%s probes: %w", def.Name, err)
		}
		tr := newTracer()
		traced, err := w.measure(b.share(tracedShare, minTraced), tr)
		if err != nil {
			return nil, fmt.Errorf("%s traced run: %w", def.Name, err)
		}
		tally(traced)
		w.traced(tr, traced, out)
		out.set("trace.overhead_share", median(traced.latencies())/median(plain.latencies())-1, len(traced.ops), nil)
		out.set("oracle.violations", float64(w.violations()), 1, nil)
		res.PerLayer, res.Absent = out.metrics, out.absent
		if err := tr.writeJSONL(filepath.Join(cfg.root, "cmd", "bench", "out", "trace-"+def.Name+".jsonl")); err != nil {
			return nil, err
		}
	}
	closed = true
	if err := w.close(); err != nil {
		res.Failed++
		res.Notes = append(res.Notes, err.Error())
	}
	if v := w.violations(); v > 0 {
		res.Failed += v
		res.Notes = append(res.Notes, fmt.Sprintf("%d oracle violations", v))
	}
	return res, nil
}

// cmdWorkload is BENCHMARK.json's command: one workload, measured for
// --seconds, one JSON object as the last line of standard output.
func cmdWorkload(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	ops := fs.Int("ops", 0, "measure a fixed op count instead (used by `bench run`)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	full := fs.String("full", "", "run every phase and write the workload's results to this file (used by `bench run`)")
	smoke := fs.Bool("smoke", false, "2 ops: a functional check, not a measurement")
	if err := fs.Parse(args); err != nil {
		return err
	}
	def, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	cfg := runConfig{seed: *seed, smoke: *smoke, root: root,
		tmp: filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))}
	b := budget{ops: *ops, seconds: *seconds}
	if *smoke {
		b = budget{ops: 2}
	}
	mode := modeEndToEnd
	switch {
	case *full != "":
		mode = modeFull
	case *trace == 1:
		mode = modeTrace
	}
	res, err := runWorkload(def, cfg, mode, b)
	if err != nil {
		return err
	}
	if *full != "" {
		return writeJSON(*full, res)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(os.Stderr, "bench:", n)
	}
	return json.NewEncoder(os.Stdout).Encode(contractLine(res, mode == modeTrace))
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

// contractLine renders a result as the driver expects it. A per-layer
// metric this workload does not own reads 0.
func contractLine(res *workloadResult, trace bool) contractResult {
	out := contractResult{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]contractValue{}}
	if !trace {
		for _, d := range contractEndToEnd() {
			out.Metrics[d.Name] = contractValue{res.EndToEnd[d.Name].Value, d.Unit}
		}
		return out
	}
	for _, d := range perLayer {
		out.Metrics[d.Name] = contractValue{res.PerLayer[d.Name].Value, d.Unit}
	}
	return out
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// --- bench run --------------------------------------------------------------

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed every input derives from")
	outPath := fs.String("out", "", "write the results file here")
	smoke := fs.Bool("smoke", false, "2 ops per workload: a functional check, not a measurement")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sets, err := runSets(*seed, *smoke, 1)
	if err != nil {
		return err
	}
	r := sets[0]
	printResults(os.Stdout, r)
	if *outPath != "" {
		if err := writeJSON(*outPath, r); err != nil {
			return err
		}
	}
	for _, wl := range r.Workloads {
		if wl.Failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed", wl.Name, wl.Failed, wl.Attempted)
		}
	}
	return nil
}

// runSets runs every workload, each in its own child process (a clean
// heap and its own peak RSS), and gathers n results files. With n > 1
// the sets alternate workload by workload, so that a slow drift of the
// machine reaches all of them alike.
func runSets(seed int64, smoke bool, n int) ([]*results, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sets := make([]*results, n)
	for i := range sets {
		sets[i] = &results{Schema: 1, Env: envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: commit(root), Seed: seed, Smoke: smoke}}
	}
	for _, def := range workloads {
		for i, r := range sets {
			part := filepath.Join(dir, fmt.Sprintf("part-%d-%s.json", os.Getpid(), def.Name))
			args := []string{"--workload", def.Name, "--seed", fmt.Sprint(seed), "--ops", fmt.Sprint(def.Ops), "--full", part}
			if smoke {
				args = append(args, "--smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			fmt.Fprintf(os.Stderr, "bench: running %s (set %d of %d)\n", def.Name, i+1, n)
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s: %w", def.Name, err)
			}
			data, err := os.ReadFile(part)
			os.Remove(part)
			if err != nil {
				return nil, err
			}
			var wl workloadResult
			if err := json.Unmarshal(data, &wl); err != nil {
				return nil, err
			}
			r.Workloads = append(r.Workloads, wl)
		}
	}
	return sets, nil
}

// commit names the checkout's commit, when it is a git repository.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
