package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Workload names. They are fixed: later issues refer to them.
const (
	wlCNVCold     = "cnv-cold"
	wlCNVWarm     = "cnv-warm"
	wlStitchScale = "stitch-scale"
	wlDaemonDSE   = "daemon-dse"
)

// workloadDef describes one workload of the benchmark.
type workloadDef struct {
	Name string
	// Ops is the fixed op count of `bench run` (jobs on daemon-dse).
	Ops int
	// SetupReps is how often set-up runs; setup_s is the median. The
	// daemon's set-up is dominated by ~10 s of estimator training, which
	// is steady on its own and too long to repeat inside a run.
	SetupReps int
	Why       string
}

var workloads = []workloadDef{
	{wlCNVCold, 100, 3, "the paper's main path: cold cnvW1A1 compile, no cache; ~85% of the time is min-CF probes (place+route under pblock)"},
	{wlCNVWarm, 200, 3, "same compile from a disk-warm cache in a fresh process: bypasses the probe loop; time is synth, quick place, cache rebuild and stitch"},
	{wlStitchScale, 400, 3, "the stitcher alone on 1750 instances with room to move (hybrid, 40k moves, 4 chains), the opposite regime of the full cnv device"},
	{wlDaemonDSE, 1600, 1, "the service path: macroflowd under 2 closed-loop clients submitting batches of 4 DSE jobs (warm builtin, novel estimator-mode variants, a repeat)"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef is one catalogue entry.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share by which an end-to-end metric may worsen
	// before `bench diff` calls it a regression (0 for layer metrics and
	// exact ones). It applies to two results files of `bench run`: the
	// same seed, fixed op counts, >= 100 ops.
	Bound float64
	// Driver is the bound BENCHMARK.json carries for the metric. The
	// driver compares single runs of runSeconds on different seeds, taken
	// at any time on a shared box; README.md has the measured ten-seed
	// spreads these values rest on.
	Driver float64
	// Exact marks deterministic metrics: between two results files of one
	// seed any difference is a change in behaviour, and `bench diff` gates
	// them exactly.
	Exact bool
	// Owner is the workload whose traced run measures a layer metric;
	// "" means every workload measures it. Other workloads report 0.
	Owner string
	// Moves says which end-to-end metric, on which workload, the layer
	// metric is expected to move (the README's interaction table).
	Moves string
}

// endToEnd is the ten end-to-end metrics every workload reports.
var endToEnd = []metricDef{
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, Driver: 0.25},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.15, Driver: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Driver: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.10, Driver: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, Driver: 0.20},
	{Name: "fail_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.15, Driver: 0.25},
	{Name: "tool_runs_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "unplaced_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "stitch_cost_per_op", Unit: "cost", Better: "lower", Exact: true, Driver: 0.03},
}

// contractEndToEnd are the end-to-end metrics BENCHMARK.json bounds —
// those with a driver bound, which read 0 on no workload. The other
// three (fail_share, tool_runs_per_op, unplaced_per_op) cannot carry a
// relative bound and travel with the per-layer metrics.
func contractEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.Driver > 0 {
			out = append(out, d)
		}
	}
	return out
}

// runSeconds is how long one driver run measures (BENCHMARK.json's
// run_seconds), sized so that the ten-seed spread of every timed metric
// stays inside its bound; see README.md.
const runSeconds = 20

// benchmarkJSON renders BENCHMARK.json from the catalogue, so that the
// file the driver gates on cannot drift from it. Regenerate the file
// with `bench schema > BENCHMARK.json`; a test compares the two.
func benchmarkJSON() []byte {
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var b struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []entry         `json:"end_to_end"`
		PerLayer   []entry         `json:"per_layer"`
	}
	b.Command, b.Paths, b.RunSeconds = []string{"bash", "cmd/bench/run.sh"}, []string{"cmd/bench"}, runSeconds
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadEntry{w.Name, w.Why})
	}
	for _, d := range contractEndToEnd() {
		bound := d.Driver
		b.EndToEnd = append(b.EndToEnd, entry{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, entry{d.Name, d.Unit, d.Better, nil})
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}

// Stitcher backends and problem scales of the crossover matrix.
// Backends are addressed by string name only: one the build rejects is
// reported absent, never a failed op.
var (
	matrixBackends = []string{"anneal", "analytic", "hybrid", "evo", "portfolio"}
	matrixScales   = []int{10, 30}
	smallBackends  = []string{"anneal", "hybrid"} // also measured at 1x
)

// flowLayers are the span names of the decomposed replay whose self
// times become flow.<layer>_ms; "other" collects the op and block
// spans' own time.
var flowLayers = []string{"synth", "quickplace", "search", "place", "route", "cache", "stitch", "other"}

// perLayer is the per-layer catalogue, in print order.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo, hi := "lower", "higher"
	var out []metricDef
	add := func(owner, name, unit, better, moves string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better, Owner: owner, Moves: moves,
			Exact: isExactLayer(name)})
	}
	cold, warm, st, dm := wlCNVCold, wlCNVWarm, wlStitchScale, wlDaemonDSE

	add(cold, "synth.module_us", "us", lo, "op_ms_p50 on cnv-warm; <=5% on cnv-cold")
	add(cold, "synth.cells_out", "count", lo, "less work for place/route on cnv-cold")
	add(cold, "synth.opt_removed_share", "ratio", hi, "synth.cells_out")
	add(cold, "place.quick_us", "us", lo, "op_ms_p50 on cnv-warm")
	add(cold, "place.detail_ok_us", "us", lo, "op_ms_p50, cpu_ms_per_op on cnv-cold")
	add(cold, "place.detail_reject_us", "us", lo, "op_ms_p50, cpu_ms_per_op on cnv-cold (most sweep probes)")
	add(cold, "place.verify_us", "us", lo, "pblock.rebuild_us, hence op_ms_p50 on cnv-warm")
	add(cold, "route.probe_us", "us", lo, "op_ms_p50, cpu_ms_per_op on cnv-cold")
	add(cold, "route.feasible_share", "ratio", hi, "tool_runs_per_op on cnv-cold")
	add(cold, "pblock.build_us", "us", lo, "op_ms_p50 on cnv-cold (search self time)")
	add(cold, "pblock.mincf_linear_ms", "ms", lo, "op_ms_p50, cpu_ms_per_op on cnv-cold (up to ~85% of the op)")
	add(cold, "pblock.mincf_linear_probes", "count", lo, "tool_runs_per_op, then op_ms_p50, on cnv-cold")
	add(cold, "pblock.mincf_bisect_ms", "ms", lo, "setup_s on daemon-dse (dataset labelling)")
	add(cold, "pblock.mincf_bisect_probes", "count", lo, "setup_s on daemon-dse")
	add(dm, "pblock.from_estimate_ms", "ms", lo, "op_ms_p50 on daemon-dse (novel jobs)")
	add(dm, "pblock.from_estimate_probes", "count", lo, "tool_runs_per_op on daemon-dse")
	add(dm, "pblock.first_run_share", "ratio", hi, "tool_runs_per_op on daemon-dse")
	add(cold, "pblock.useful_probe_share", "ratio", hi, "tool_runs_per_op on cnv-cold")
	add(cold, "pblock.slowest_block_ms", "ms", lo, "floor of op_ms_p50 on cnv-cold as cores are added")
	add(warm, "pblock.rebuild_us", "us", lo, "op_ms_p50 on cnv-warm")
	add(warm, "implcache.put_us", "us", lo, "setup_s on cnv-warm; op_ms_p50 on daemon-dse")
	add(warm, "implcache.get_us", "us", lo, "op_ms_p50 on cnv-warm")
	add(warm, "implcache.record_bytes", "B", lo, "implcache.get_us / put_us")
	add(warm, "cache.disk_hit_share", "ratio", hi, "tool_runs_per_op on cnv-warm (must stay 0)")
	add(warm, "cache.mem_hit_share", "ratio", hi, "op_ms_p50 on cnv-warm")
	add(dm, "cache.singleflight_hits", "count", hi, "tool_runs_per_op on daemon-dse")
	add(dm, "ml.predict_us", "us", lo, "op_ms_p50 on daemon-dse (slightly)")
	add(dm, "ml.fit_s", "s", lo, "setup_s on daemon-dse")
	add(dm, "ml.rel_error", "ratio", lo, "tool_runs_per_op on daemon-dse")
	add(dm, "dataset.generate_s", "s", lo, "setup_s on daemon-dse")
	add(dm, "dataset.modules_per_s", "1/s", hi, "setup_s on daemon-dse")
	for _, sc := range append([]int{1}, matrixScales...) {
		backends := matrixBackends
		if sc == 1 {
			backends = smallBackends
		}
		for _, be := range backends {
			moves := "nothing end-to-end (matrix only)"
			if be == "hybrid" && sc == 10 {
				moves = "op_ms_p50 / stitch_cost_per_op on stitch-scale"
			}
			add(st, fmt.Sprintf("stitch.%s.%dx.ms", be, sc), "ms", lo, moves)
			add(st, fmt.Sprintf("stitch.%s.%dx.cost", be, sc), "cost", lo, moves)
		}
	}
	add(st, "stitch.sharded.10x.ms", "ms", lo, "nothing end-to-end (matrix only)")
	add(st, "stitch.sharded.10x.cost", "cost", lo, "nothing end-to-end (matrix only)")
	add(warm, "stitch.cnv.ms", "ms", lo, "op_ms_p50 on cnv-warm (~30%); ~6% on cnv-cold")
	add(warm, "stitch.cnv.illegal_share", "ratio", lo, "op_ms_p50, unplaced_per_op on cnv-warm")
	add(warm, "stitch.cnv.converge_iter", "count", lo, "stitch_cost_per_op on cnv-*")
	add(st, "stitch.hybrid.10x.moves_per_s", "1/s", hi, "op_ms_p50 on stitch-scale")
	add(st, "partition.greedy.ms", "ms", lo, "nothing end-to-end (matrix only)")
	add(st, "partition.greedy.cut", "cost", lo, "nothing end-to-end (matrix only)")
	add(st, "partition.evo.ms", "ms", lo, "nothing end-to-end (matrix only)")
	add(st, "partition.evo.cut", "cost", lo, "nothing end-to-end (matrix only)")
	add(cold, "oracle.check_impl_us", "us", lo, "setup_s on cnv-*")
	add(st, "oracle.check_placement_ms", "ms", lo, "setup_s on stitch-scale and cnv-*")
	add(cold, "oracle.check_mincf_ms", "ms", lo, "setup_s on cnv-*")
	add("", "oracle.violations", "count", lo, "fail_share (must stay 0)")
	add(dm, "api.decode_us", "us", lo, "op_ms_p50, op_ms_p90 on daemon-dse")
	add(dm, "api.encode_us", "us", lo, "op_ms_p50, op_ms_p90 on daemon-dse")
	add(dm, "api.result_bytes", "B", lo, "daemon.fetch_ms_p50")
	add(dm, "daemon.submit_rtt_ms_p50", "ms", lo, "op_ms_p50, op_ms_p90 on daemon-dse")
	add(dm, "daemon.queue_wait_ms_p50", "ms", lo, "op_ms_p50 on daemon-dse")
	add(dm, "daemon.queue_wait_ms_p90", "ms", lo, "op_ms_p90 on daemon-dse")
	add(dm, "daemon.run_ms_p50", "ms", lo, "op_ms_p50 on daemon-dse, by more than the run saving (batch-mates wait less)")
	add(dm, "daemon.run_ms_p90", "ms", lo, "op_ms_p90 on daemon-dse")
	add(dm, "daemon.fetch_ms_p50", "ms", lo, "ops_per_s on daemon-dse")
	for _, stage := range []string{"synth", "place", "mincf", "stitch"} {
		add(dm, "daemon.stage_ms."+stage, "ms", lo, "daemon.run_ms_p50")
	}
	add(dm, "daemon.queue_depth_peak", "count", lo, "daemon.queue_wait_ms_p90")
	add(dm, "daemon.worker_busy_share", "ratio", hi, "ops_per_s on daemon-dse")
	add(dm, "daemon.rejected", "count", lo, "fail_share on daemon-dse (must stay 0)")
	for _, l := range flowLayers {
		add("", "flow."+l+"_ms", "ms", lo, "op_ms_p50 on the workload traced")
	}
	add("", "trace.overhead_share", "ratio", lo, "nothing (cost of the harness's own spans and replay)")
	// The three end-to-end metrics that read 0 on some workload cannot
	// carry a relative bound in BENCHMARK.json; the traced run reports
	// them there so that the driver still records them.
	add("", "tool_runs_per_op", "count", lo, "op_ms_p50 on cnv-cold and daemon-dse")
	add("", "unplaced_per_op", "count", lo, "stitch_cost_per_op")
	add("", "fail_share", "ratio", lo, "everything: a failed op has no valid timing")
	return out
}

// isExactLayer marks the deterministic layer counts `bench diff` gates
// exactly: probe counts, stitch costs, partition cuts, and the traced
// run's quality metrics.
func isExactLayer(name string) bool {
	switch name {
	case "tool_runs_per_op", "unplaced_per_op", "fail_share", "oracle.violations":
		return true
	}
	return strings.HasSuffix(name, "_probes") || strings.HasSuffix(name, ".cost") || strings.HasSuffix(name, ".cut")
}

func defByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// --- results file ---------------------------------------------------------

// metric is one measured value. N is the sample count behind Value;
// Rounds are the metric recomputed on each fifth of the measured ops
// (or each probe repetition), the within-run spread `bench diff` uses
// to tell "unchanged" from "unresolved". Raw is the plain statistic over
// every measured op, the machine's interference included, where Value
// is the library workloads' best-of-repeats estimate (measure.go).
type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Rounds []float64 `json:"rounds,omitempty"`
	Raw    float64   `json:"raw,omitempty"`
}

// workloadResult is one workload's section of the results file.
type workloadResult struct {
	Name      string            `json:"name"`
	Ops       int               `json:"ops"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	// Absent lists layer metrics omitted because the build rejects the
	// backend they address.
	Absent []string `json:"absent,omitempty"`
	Notes  []string `json:"notes,omitempty"`
}

type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Smoke      bool   `json:"smoke,omitempty"`
}

type results struct {
	Schema    int              `json:"schema"`
	Env       envInfo          `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

// printName renders a layer metric's name for a workload: flow.* and
// trace.* carry the workload they were traced on.
func printName(workload, name string) string {
	for _, p := range []string{"flow.", "trace."} {
		if strings.HasPrefix(name, p) {
			return p + workload + "." + strings.TrimPrefix(name, p)
		}
	}
	return name
}

// printResults writes every metric by name with unit and sample count.
func printResults(w io.Writer, r *results) {
	fmt.Fprintf(w, "seed %d  nproc %d  GOMAXPROCS %d  %s  commit %s\n\n",
		r.Env.Seed, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit)
	fmt.Fprintf(w, "%-22s", "end-to-end")
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, " %16s", wl.Name)
	}
	fmt.Fprintln(w)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-22s", d.Name+" ["+d.Unit+"]")
		for _, wl := range r.Workloads {
			m := wl.EndToEnd[d.Name]
			fmt.Fprintf(w, " %16s", fmt.Sprintf("%.5g (n=%d)", m.Value, m.N))
		}
		fmt.Fprintln(w)
		if r.Workloads[0].EndToEnd[d.Name].Raw != 0 {
			fmt.Fprintf(w, "%-22s", "  over every op")
			for _, wl := range r.Workloads {
				cell := "-       "
				if raw := wl.EndToEnd[d.Name].Raw; raw != 0 {
					cell = fmt.Sprintf("%.5g       ", raw)
				}
				fmt.Fprintf(w, " %16s", cell)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "per-layer, measured on %s (%d/%d ops failed)\n", wl.Name, wl.Failed, wl.Attempted)
		for _, d := range perLayer {
			if m, ok := wl.PerLayer[d.Name]; ok {
				fmt.Fprintf(w, "  %-40s %14.6g %-6s n=%d\n", printName(wl.Name, d.Name), m.Value, m.Unit, m.N)
			}
		}
		for _, a := range wl.Absent {
			fmt.Fprintf(w, "  %-40s %14s\n", a, "absent")
		}
		for _, n := range wl.Notes {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
		fmt.Fprintln(w)
	}
}
