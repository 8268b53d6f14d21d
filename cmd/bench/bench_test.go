package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: percentile must sort
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 0.90, 1}, {1, 0.50, 1},
		{2, 0.90, 2}, {2, 0.50, 1},
		{9, 0.90, 9},   // ceil(8.1) = 9: with n < 10 the p90 is the maximum
		{10, 0.90, 9},  // exactly one sample beyond it
		{11, 0.90, 10}, // ceil(9.9) = 10
		{100, 0.90, 90}, {100, 0.50, 50}, {100, 1.0, 100},
	} {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.9); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
}

// The contract measures spread with Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v..%v, want 0.75..2.25", q1, q3)
	}
	if got := spread([]float64{100, 100, 100}); got != 0 {
		t.Errorf("spread of equal values = %v", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a: lanes run in parallel
		{ID: 3, Parent: 0, Name: "c", Start: 70, End: 120}, // clipped to the parent
		{ID: 4, Parent: 2, Name: "d", Start: 25, End: 45},  // a grandchild only shrinks its parent
		{ID: 5, Parent: 0, Name: "e", Start: 22, End: 28},  // wholly inside earlier children
		{ID: 6, Parent: -1, Name: "op", Start: 200, End: 260, Op: 1},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 30, 1: 20, 2: 10, 3: 50, 4: 20, 5: 6, 6: 60}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	byOp := selfByName(spans)
	if got := byOp[0]["op"]; got != 30e-6 {
		t.Errorf("op 0 self = %v ms, want 30e-6", got)
	}
	if got := byOp[1]["op"]; got != 60e-6 {
		t.Errorf("op 1 self = %v ms, want 60e-6", got)
	}
}

func TestDiffGates(t *testing.T) {
	timed, _ := defByName(endToEnd, "op_ms_p50") // lower is better, bound 10%
	rate, _ := defByName(endToEnd, "ops_per_s")  // higher is better, bound 10%
	exact, _ := defByName(endToEnd, "tool_runs_per_op")
	fail, _ := defByName(endToEnd, "fail_share")
	probes, _ := defByName(perLayer, "pblock.mincf_linear_probes")
	layer, _ := defByName(perLayer, "place.quick_us")
	quiet := func(v float64) metric { return metric{Value: v, Rounds: []float64{v * 0.99, v, v, v, v * 1.01}} }
	noisy := func(v float64) metric {
		return metric{Value: v, Rounds: []float64{v * 0.8, v * 0.9, v, v * 1.1, v * 1.2}}
	}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b metric
		want string
	}{
		{"exact equal", exact, metric{Value: 870}, metric{Value: 870}, vUnchanged},
		{"exact more", exact, metric{Value: 870}, metric{Value: 871}, vRegression},
		{"exact fewer", exact, metric{Value: 870}, metric{Value: 480}, vImproved},
		{"exact from zero", exact, metric{Value: 0}, metric{Value: 1}, vRegression},
		{"higher fail share", fail, metric{Value: 0}, metric{Value: 0.01}, vRegression},
		{"layer count gated exactly", probes, metric{Value: 870}, metric{Value: 872}, vRegression},
		{"within bound", timed, quiet(100), quiet(109), vUnchanged},
		{"beyond bound", timed, quiet(100), quiet(111), vRegression},
		{"much better", timed, quiet(100), quiet(80), vImproved},
		{"rate drop", rate, quiet(10), quiet(8.5), vRegression},
		{"rate rise", rate, quiet(10), quiet(12), vImproved},
		{"spread wider than bound", timed, noisy(100), noisy(103), vUnresolved},
		{"wide spread, regression hidden", timed, noisy(100), noisy(115), vUnresolved},
		{"wide spread, yet every round better", timed, noisy(100), noisy(50), vImproved},
		{"no rounds recorded", timed, metric{Value: 100}, metric{Value: 120}, vRegression},
		{"unbounded layer metric", layer, quiet(8), quiet(12), vChanged},
	} {
		if _, got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	a := &results{Workloads: []workloadResult{{Name: wlCNVCold,
		EndToEnd: map[string]metric{"op_ms_p50": quiet(600), "tool_runs_per_op": {Value: 870}},
		PerLayer: map[string]metric{"stitch.evo.10x.cost": {Value: 230001}, "place.quick_us": quiet(8)}}}}
	b := &results{Workloads: []workloadResult{{Name: wlCNVCold,
		EndToEnd: map[string]metric{"op_ms_p50": quiet(700), "tool_runs_per_op": {Value: 870}},
		PerLayer: map[string]metric{"place.quick_us": quiet(8)}}}}
	rows := diffResults(a, b)
	if n := regressions(rows); n != 1 {
		t.Errorf("%d regressions, want 1 (op_ms_p50)", n)
	}
	for _, r := range rows {
		if r.Metric == "stitch.evo.10x.cost" && r.Verdict != vMissing {
			t.Errorf("a backend gone from one side is %s, want %s", r.Verdict, vMissing)
		}
	}
}

func TestEndToEndMetrics(t *testing.T) {
	// daemon-dse: the sequence never repeats, the statistics run over
	// every op.
	var p phase
	for i := 0; i < 25; i++ {
		// Completion order is not generation order: the last five ops
		// generated (tool runs 0..4) complete first.
		seq := (i + 20) % 25
		p.ops = append(p.ops, opOutcome{seq: seq, ms: float64(i + 1), doneS: float64(i+1) / 10,
			toolRuns: float64(seq % 10), cost: 100})
	}
	p.ops[3].failed = true
	p.wallS, p.cpuMs = 2.5, 50
	m := endToEndMetrics(p, []float64{3, 1, 2})
	for name, want := range map[string]float64{
		"op_ms_p50": 13, "op_ms_p90": 23, "ops_per_s": 10, "cpu_ms_per_op": 2, "fail_share": 0.04,
		"setup_s": 2, "tool_runs_per_op": 4, "stitch_cost_per_op": 100,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := len(m["op_ms_p50"].Rounds); got != spreadRounds {
		t.Errorf("%d rounds, want %d", got, spreadRounds)
	}
	if m["cpu_ms_per_op"].Rounds != nil {
		t.Error("CPU time of a part of a daemon phase is not known, yet it has rounds")
	}
	for _, d := range endToEnd {
		if m[d.Name].Unit != d.Unit {
			t.Errorf("%s carries unit %q, want %q", d.Name, m[d.Name].Unit, d.Unit)
		}
	}
}

// A library workload repeats a cycle of inputs; each input counts with
// the fastest of its repeats, the partial cycle at the end with none.
func TestBestOfRepeats(t *testing.T) {
	p := phase{cycle: 10}
	for i := 0; i < 105; i++ {
		k, rep := i%10, i/10
		// Input k takes 10(k+1) ms at best, in repeat k; every other
		// repeat is disturbed by up to 40 %.
		slow := 1 + 0.04*float64((rep+10-k)%10)
		p.ops = append(p.ops, opOutcome{seq: i, ms: 10 * float64(k+1) * slow, cpuMs: 20 * float64(k+1) * slow,
			doneS: float64(i + 1), toolRuns: float64(k), cost: 100})
	}
	p.wallS, p.cpuMs = 105, 3000
	m := endToEndMetrics(p, []float64{1})
	for name, want := range map[string]float64{
		"op_ms_p50": 55, "op_ms_p90": 90, "ops_per_s": 1000.0 / 55, "cpu_ms_per_op": 110,
		"tool_runs_per_op": 4.5,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for _, name := range []string{"op_ms_p50", "op_ms_p90", "ops_per_s", "cpu_ms_per_op", "tool_runs_per_op"} {
		if n := m[name].N; n != 100 {
			t.Errorf("%s rests on %d ops, want 100 (whole cycles)", name, n)
		}
	}
	if raw := m["op_ms_p50"].Raw; raw <= 55 {
		t.Errorf("the median over every op is %v, want more than the undisturbed 55", raw)
	}
	// Each round is two whole cycles: it sees the undisturbed repeat of
	// two inputs only.
	r := m["op_ms_p50"].Rounds
	if len(r) != spreadRounds || r[0] <= 55 {
		t.Errorf("rounds %v, want %d values above 55", r, spreadRounds)
	}
	if len(m["cpu_ms_per_op"].Rounds) != spreadRounds {
		t.Error("cpu_ms_per_op has no rounds")
	}

	// Fewer ops than one cycle: the plain statistics.
	p.ops = p.ops[:4]
	if got := endToEndMetrics(p, nil)["op_ms_p50"]; math.Abs(got.Value-33.4) > 1e-9 || got.N != 4 {
		t.Errorf("4 ops of a 10-cycle: op_ms_p50 = %v (n=%d), want 33.4 (n=4)", got.Value, got.N)
	}
}

// Same -seed, byte-identical request bodies and problem; another seed,
// other inputs.
func TestGeneratorDeterminism(t *testing.T) {
	gen := func(seed int64) (*dseGenerator, *stitchWorkload) {
		cfg := runConfig{seed: seed}
		d, err := newWorkload(wlDaemonDSE, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := newWorkload(wlStitchScale, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d.(*daemonWorkload).gen, s.(*stitchWorkload)
	}
	bodies := func(g *dseGenerator) []byte {
		var all bytes.Buffer
		for n := 0; n < 40; n++ {
			jobs, err := g.batch(n)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				all.WriteString(j.kind + " ")
				all.Write(j.body)
			}
		}
		return all.Bytes()
	}
	g1, s1 := gen(7)
	g2, s2 := gen(7)
	g3, s3 := gen(8)
	if !bytes.Equal(bodies(g1), bodies(g2)) {
		t.Error("same seed, different request bodies")
	}
	if bytes.Equal(bodies(g1), bodies(g3)) {
		t.Error("different seeds, same request bodies")
	}
	if !reflect.DeepEqual(s1.seeds, s2.seeds) {
		t.Error("same seed, different stitch seeds")
	}
	if reflect.DeepEqual(s1.seeds, s3.seeds) {
		t.Error("different seeds, same stitch seeds")
	}
	// The problem set is the workload's, whatever the seed.
	p1, p2, other := synthetic(1, s1.problemSeeds[0]), synthetic(1, s3.problemSeeds[0]), synthetic(1, s1.problemSeeds[1])
	if p1.fingerprint() != p2.fingerprint() {
		t.Error("the same problem seed gave two synthetic problems")
	}
	if p1.fingerprint() == other.fingerprint() {
		t.Error("two problem seeds gave the same synthetic problem")
	}
}

// Novel variants are provably unique within a run: the parameter map is
// a bijection, batches never share a variant number, and a run that
// would wrap around stops instead.
func TestNovelVariantsUnique(t *testing.T) {
	seen := map[[2]int]bool{}
	for id := 0; id < variantSpace; id++ {
		simd, srLen := variantParams(id)
		if simd == repeatSIMD {
			t.Fatalf("variant %d collides with the repeat variant", id)
		}
		seen[[2]int{simd, srLen}] = true
	}
	if len(seen) != variantSpace {
		t.Fatalf("%d distinct blocks from %d variant numbers", len(seen), variantSpace)
	}
	for _, start := range []int{0, 17 * variantDim, variantSpace - variantDim} {
		simds, lens := map[int]bool{}, map[int]bool{}
		for id := start; id < start+variantDim; id++ {
			s, l := variantParams(id)
			simds[s], lens[l] = true, true
		}
		if len(simds) != variantDim || len(lens) != variantDim {
			t.Errorf("48 variants from %d cover %d widths and %d lengths, want 48 each", start, len(simds), len(lens))
		}
	}
	g := newDSEGenerator(3, rand.New(rand.NewSource(3)), 10)
	names := map[string]bool{}
	for n := 0; n < variantSpace/2; n++ {
		jobs, err := g.batch(n)
		if err != nil {
			t.Fatalf("batch %d: %v", n, err)
		}
		for _, j := range jobs {
			if j.kind != kindNovel {
				continue
			}
			var req struct {
				Design struct {
					Blocks []struct{ Name string }
				}
			}
			if err := json.Unmarshal(j.body, &req); err != nil {
				t.Fatal(err)
			}
			if names[req.Design.Blocks[1].Name] {
				t.Fatalf("batch %d repeats worker %s", n, req.Design.Blocks[1].Name)
			}
			names[req.Design.Blocks[1].Name] = true
		}
	}
	if _, err := g.batch(variantSpace / 2); err == nil {
		t.Error("a batch beyond the variant space was generated instead of refused")
	}
}

// BENCHMARK.json, the file the driver gates on, is generated from the
// catalogue (`bench schema`): one table of names, units and bounds.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with `go -C cmd/bench run . schema > BENCHMARK.json`")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract takes at most 128", len(perLayer))
	}
	setup, _ := defByName(endToEnd, "setup_s")
	names := map[string]bool{}
	for _, d := range contractEndToEnd() {
		if d.Driver > 0.25 || d.Driver > setup.Driver {
			t.Errorf("%s: driver bound %v, want at most 0.25 and setup_s's %v", d.Name, d.Driver, setup.Driver)
		}
		if d.Driver < d.Bound {
			t.Errorf("%s: the driver's single runs are bounded tighter (%v) than `bench diff`'s paired sets (%v)", d.Name, d.Driver, d.Bound)
		}
		names[d.Name] = true
	}
	for _, d := range perLayer {
		if names[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		names[d.Name] = true
	}
	for _, w := range workloads {
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
}

// TestSmoke runs every workload end to end at 2 ops — set-up, oracle
// audits, the untraced phase, every layer probe, the traced replay and,
// for the daemon, a SIGTERM drain — and checks that each catalogued
// metric is reported by the workload that owns it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives macroflowd")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			cfg := runConfig{seed: 1, smoke: true, root: root, tmp: filepath.Join(t.TempDir(), "run")}
			res, err := runWorkload(def, cfg, modeFull, budget{ops: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%d of %d ops failed: %v", res.Failed, res.Attempted, res.Notes)
			}
			for _, d := range endToEnd {
				m, ok := res.EndToEnd[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end metric %s = %v (present: %v)", d.Name, m.Value, ok)
				}
			}
			absent := map[string]bool{}
			for _, a := range res.Absent {
				absent[a] = true
			}
			for _, d := range perLayer {
				m, ok := res.PerLayer[d.Name]
				owned := d.Owner == "" || d.Owner == def.Name
				if strings.HasPrefix(d.Name, "flow.") && d.Name != "flow.other_ms" {
					continue // reported only for the layers the workload enters
				}
				switch {
				case owned && !ok && !absent[d.Name]:
					t.Errorf("layer metric %s is missing", d.Name)
				case !owned && ok:
					t.Errorf("layer metric %s reported by %s, owned by %s", d.Name, def.Name, d.Owner)
				case ok && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)):
					t.Errorf("layer metric %s = %v", d.Name, m.Value)
				}
			}
			if def.Name != wlDaemonDSE {
				// Named layer spans must cover >= 90% of a library op. The
				// layers' self times add up over the parallel lanes.
				total := 0.0
				for _, l := range flowLayers {
					total += res.PerLayer["flow."+l+"_ms"].Value
				}
				if other := res.PerLayer["flow.other_ms"].Value; other*float64(runtime.GOMAXPROCS(0)) > 0.1*total {
					t.Errorf("flow.other_ms = %v of %v ms traced per op", other, total)
				}
			}
			if v := res.PerLayer["oracle.violations"].Value; v != 0 {
				t.Errorf("oracle.violations = %v", v)
			}
			line := contractLine(res, true)
			if len(line.Metrics) != len(perLayer) || !line.Correct {
				t.Errorf("traced contract line: %d metrics (want %d), correct %v", len(line.Metrics), len(perLayer), line.Correct)
			}
			if line = contractLine(res, false); len(line.Metrics) != len(contractEndToEnd()) {
				t.Errorf("end-to-end contract line has %d metrics, want %d", len(line.Metrics), len(contractEndToEnd()))
			}
		})
	}
}
