// Command experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md):
//
//	table1   — Table I: slices & longest path, RW CF 1.5 vs minimal vs AMD
//	table2   — Table II: estimator relative errors per feature set
//	fig3     — block footprints at CF 1.5 vs minimal (ASCII)
//	fig4     — distribution of the optimal CF over the cnvW1A1 blocks
//	fig5     — placed design: AMD vs RW constant-CF vs RW minimal-CF
//	fig7     — dataset design-space coverage
//	fig8     — balanced CF distribution of the training data
//	fig9     — decision-tree feature importance per feature set
//	fig10    — predicted versus actual CF on the test split
//	fig11    — linear-regression and NN estimates on the cnv blocks
//	fig12    — random-forest feature importance, cnv as test set
//	fig13    — stitching with estimator vs constant CF on xc7z045
//	toolruns — §VIII tool-run comparison (estimator vs constant sweep)
//	ablation — contribution of the §V mechanisms to the minimal CF
//	overhead — the §VIII estimator-bias knob (run time vs density)
//	maze     — analytic congestion model vs the precise maze router
//
// Run one with -exp <name>, several with a comma list, or everything
// with -exp all. -quick shrinks datasets and ensembles for fast runs.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"macroflow/internal/cliflags"
	"macroflow/internal/implcache"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	exp := flag.String("exp", "all", "experiment id(s), comma separated, or 'all'")
	seed := flag.Int64("seed", 1, "master seed")
	modules := flag.Int("modules", 2000, "dataset size before balancing")
	trees := flag.Int("trees", 1000, "random forest size")
	epochs := flag.Int("epochs", 600, "neural network epochs")
	stitchIters := flag.Int("stitch-iters", 300000, "SA iteration budget")
	st := cliflags.AddStitch(flag.CommandLine,
		"parallel-tempering chains for stitching (0/1 = serial, bit-identical to previous releases)")
	pt := cliflags.AddPartition(flag.CommandLine, "")
	quick := flag.Bool("quick", false, "reduced sizes for a fast smoke run")
	cacheDir := cliflags.AddCache(flag.CommandLine,
		"persistent implementation cache directory (off by default: cached labels report zero tool runs, which changes the §VIII run-count outputs)")
	obsFlags := cliflags.AddObs(flag.CommandLine,
		"write a Chrome trace_event JSON (or JSONL with a .jsonl extension) of the run to this file — load it at chrome://tracing or https://ui.perfetto.dev")
	check := cliflags.AddCheck(flag.CommandLine,
		"oracle cross-check level for the cnv flow runs: off, sampled or full (full re-probes every minimal-CF claim and recounts every placement — slow, but the run is fully audited)")
	flag.Parse()

	want, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	checkLevel, err := check.Parse()
	if err != nil {
		log.Fatal(err)
	}

	c := &ctx{
		seed:        *seed,
		modules:     *modules,
		trees:       *trees,
		epochs:      *epochs,
		stitchIters: *stitchIters,
		stitch:      st,
		partition:   pt,
		check:       checkLevel,
	}
	if *cacheDir != "" {
		if c.cache, err = implcache.Open(*cacheDir); err != nil {
			log.Fatal(err)
		}
	}
	// The recorder is only allocated when asked for: a nil *Recorder
	// disables all recording, keeping the default outputs byte-identical.
	c.rec = obsFlags.Recorder()
	if *quick {
		c.modules = 400
		c.trees = 100
		c.epochs = 150
		c.stitchIters = 60000
	}

	for _, e := range experiments {
		if want["all"] || want[e.name] {
			fmt.Printf("\n================ %s ================\n", e.name)
			sp := c.rec.Start("exp." + e.name)
			c.cur = sp
			e.run(c)
			c.cur = nil
			sp.End()
		}
	}
	if err := obsFlags.Flush(c.rec, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// experiments lists every experiment in the order -exp all runs them.
var experiments = []struct {
	name string
	run  func(*ctx)
}{
	{"table1", table1},
	{"table2", table2},
	{"fig3", fig3},
	{"fig4", fig4},
	{"fig5", fig5},
	{"fig7", fig7},
	{"fig8", fig8},
	{"fig9", fig9},
	{"fig10", fig10},
	{"fig11", fig11},
	{"fig12", fig12},
	{"fig13", fig13},
	{"toolruns", toolruns},
	{"ablation", ablation},
	{"overhead", overhead},
	{"maze", maze},
}

// selectExperiments parses -exp, a comma list of experiment names or
// all. Every name in the list must be known, so a typo fails before
// any experiment runs instead of being skipped.
func selectExperiments(spec string) (map[string]bool, error) {
	known := map[string]bool{"all": true}
	for _, e := range experiments {
		known[e.name] = true
	}
	want := map[string]bool{}
	var unknown []string
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			unknown = append(unknown, name)
		}
		want[name] = true
	}
	if len(unknown) > 0 {
		var names strings.Builder
		for _, e := range experiments {
			names.WriteString(" " + e.name)
		}
		return nil, fmt.Errorf("unknown experiment %q; known:%s", strings.Join(unknown, ","), names.String())
	}
	return want, nil
}

func bar(v float64, scale float64) string {
	n := int(v * scale)
	if n > 70 {
		n = 70
	}
	return strings.Repeat("#", n)
}
