// Micro-benchmarks of the substrates, each one read by a test, a CI
// gate or an open ROADMAP item; the paper's tables and figures are
// regenerated by cmd/experiments, and the end-to-end workloads are
// cmd/bench's. Shared fixtures are built once and reused, so the
// per-iteration numbers measure the benchmark's core computation.
package macroflow

import (
	"math"
	"os"
	"os/exec"
	"sync"
	"testing"

	"macroflow/internal/cnv"
	"macroflow/internal/fabric"
	"macroflow/internal/implcache"
	"macroflow/internal/netlist"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/route"
	"macroflow/internal/stitch"
)

// --- shared fixtures ---------------------------------------------------

var fixOnce sync.Once
var fix struct {
	dev      *fabric.Device
	design   *cnv.Design
	stitch20 *stitch.Problem // min-CF blocks on xc7z020
}

func fixtures(tb testing.TB) {
	tb.Helper()
	fixOnce.Do(func() {
		fix.dev = fabric.XC7Z020()
		fix.design = cnv.CNVW1A1()
		fix.stitch20 = benchStitchProblem(fix.dev, fix.design)
	})
}

// benchStitchProblem implements every block at its minimal CF.
func benchStitchProblem(dev *fabric.Device, d *cnv.Design) *stitch.Problem {
	cfg := pblock.DefaultConfig()
	search := pblock.SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}
	prob := &stitch.Problem{Dev: dev}
	for ti := range d.Types {
		m, err := d.Module(ti)
		if err != nil {
			panic(err)
		}
		rep := place.QuickPlace(m)
		res, err := pblock.MinCF(dev, m, rep, search, cfg)
		if err != nil {
			panic(err)
		}
		prob.Blocks = append(prob.Blocks, stitch.NewBlock(d.Types[ti].Name, res.Impl.Placement))
	}
	for ii := range d.Instances {
		prob.Instances = append(prob.Instances, stitch.Instance{
			Name: d.Instances[ii].Name, Block: d.Instances[ii].Type,
		})
	}
	for _, n := range d.Nets {
		prob.Nets = append(prob.Nets, stitch.Net{From: n.From, To: n.To, Weight: float64(n.Width) / 16})
	}
	return prob
}

func cnvModule(tb testing.TB, name string) (int, place.ShapeReport) {
	tb.Helper()
	ti := fix.design.TypeIndex(name)
	m, err := fix.design.Module(ti)
	if err != nil {
		tb.Fatal(err)
	}
	return ti, place.QuickPlace(m)
}

// --- min-CF search strategies ------------------------------------------

// minCFBenchSearch is the dataset/calibration window (§VI-C) both
// strategy benchmarks search, and minCFBenchBlocks the fixed module set:
// every unique cnvW1A1 block type.
var minCFBenchSearch = pblock.SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}

func minCFBenchBlocks(b *testing.B) []struct {
	m   *netlist.Module
	rep place.ShapeReport
} {
	b.Helper()
	fixtures(b)
	blocks := make([]struct {
		m   *netlist.Module
		rep place.ShapeReport
	}, 0, len(fix.design.Types))
	for ti := range fix.design.Types {
		m, err := fix.design.Module(ti)
		if err != nil {
			b.Fatal(err)
		}
		blocks = append(blocks, struct {
			m   *netlist.Module
			rep place.ShapeReport
		}{m, place.QuickPlace(m)})
	}
	return blocks
}

// runMinCFBench sweeps the whole block set once per iteration with the
// given strategy and reports the aggregate place-and-route invocations
// as toolruns/op.
func runMinCFBench(b *testing.B, s pblock.SearchConfig) {
	blocks := minCFBenchBlocks(b)
	cfg := pblock.DefaultConfig()
	b.ResetTimer()
	runs := 0
	for i := 0; i < b.N; i++ {
		runs = 0
		for _, blk := range blocks {
			res, err := pblock.MinCF(fix.dev, blk.m, blk.rep, s, cfg)
			if err != nil {
				b.Fatal(err)
			}
			runs += res.ToolRuns
		}
	}
	b.ReportMetric(float64(runs), "toolruns/op")
}

// BenchmarkMinCF measures the paper's exhaustive linear sweep over the
// full cnv block set.
func BenchmarkMinCF(b *testing.B) {
	runMinCFBench(b, minCFBenchSearch)
}

// BenchmarkMinCFBisect measures the bisect strategy on the identical
// block set and window. Before timing, it asserts the equivalence
// contract on every block: the bisect CF must equal the linear CF.
func BenchmarkMinCFBisect(b *testing.B) {
	blocks := minCFBenchBlocks(b)
	cfg := pblock.DefaultConfig()
	s := minCFBenchSearch
	s.Strategy = pblock.StrategyBisect
	for _, blk := range blocks {
		lin, lerr := pblock.MinCF(fix.dev, blk.m, blk.rep, minCFBenchSearch, cfg)
		bis, berr := pblock.MinCF(fix.dev, blk.m, blk.rep, s, cfg)
		if (lerr == nil) != (berr == nil) {
			b.Fatalf("%s: strategy error mismatch: %v vs %v", blk.m.Name, lerr, berr)
		}
		if lerr == nil && lin.CF != bis.CF {
			b.Fatalf("%s: bisect CF %.2f, linear CF %.2f", blk.m.Name, bis.CF, lin.CF)
		}
	}
	runMinCFBench(b, s)
}

// --- the min-CF probe loop ------------------------------------------------
//
// A linear sweep is one pblock.Plan and hundreds of Plan.Place probes,
// about nine in ten of them placement rejects. These three pin the
// per-probe costs on weights_14, the block with the longest sweep of
// cnvW1A1: a reject and an accept on a reused plan (what a search pays
// per probe), and the content hash a plan and every cache lookup derive
// once per module.

// weights14Probes walks weights_14's linear sweep and returns the module
// with the largest rectangle the placer rejects and the minimal-CF
// rectangle.
func weights14Probes(b *testing.B) (m *netlist.Module, rep place.ShapeReport, reject, ok fabric.Rect) {
	b.Helper()
	fixtures(b)
	ti, rep := cnvModule(b, "weights_14")
	m, _ = fix.design.Module(ti)
	cfg := pblock.DefaultConfig()
	plan := pblock.NewPlan(m, rep)
	for i := 0; ; i++ {
		cf := math.Round((minCFBenchSearch.Start+float64(i)*minCFBenchSearch.Step)*50) / 50 // the sweep's grid
		if cf > minCFBenchSearch.Max {
			b.Fatal("weights_14: no feasible CF in the bench window")
		}
		pb, err := pblock.Build(fix.dev, rep, cf, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Place(fix.dev, pb.Rect, cfg.Place); err != nil {
			reject = pb.Rect
			continue
		}
		if _, err := pblock.ImplementPlan(fix.dev, plan, cf, cfg); err == nil {
			return m, rep, reject, pb.Rect
		}
	}
}

// BenchmarkPlaceReject measures a rejected probe on a reused plan: carry
// chains, LUTRAM and flip-flops placed, then the logic LUTs turned away
// by counting the slots left — as every placement reject of
// weights_14's sweep is — without packing a single one.
func BenchmarkPlaceReject(b *testing.B) {
	m, rep, reject, _ := weights14Probes(b)
	plan := place.NewPlan(m, rep)
	_, _ = plan.Place(fix.dev, reject, place.Options{}) // build the plan's first-probe tables untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Place(fix.dev, reject, place.Options{}); err == nil {
			b.Fatal("weights_14 placed in a rectangle its sweep rejects")
		}
	}
}

// BenchmarkPlaceOK measures an accepted probe on a reused plan.
func BenchmarkPlaceOK(b *testing.B) {
	m, rep, _, ok := weights14Probes(b)
	plan := place.NewPlan(m, rep)
	_, _ = plan.Place(fix.dev, ok, place.Options{}) // build the plan's first-probe tables untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Place(fix.dev, ok, place.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModuleHash measures the content hash of weights_14 (4415
// cells), the key part every persistent-cache lookup recomputes.
func BenchmarkModuleHash(b *testing.B) {
	m, _, _, _ := weights14Probes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if implcache.ModuleHash(m) == "" {
			b.Fatal("empty hash")
		}
	}
}

// BenchmarkSynthCNV measures the front end of one cnvW1A1 compile:
// elaborating and optimizing all 74 block types, which a warm compile
// pays in full before it can look a single record up.
func BenchmarkSynthCNV(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := cnv.CNVW1A1()
		for ti := range d.Types {
			if _, err := d.Module(ti); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRecordCodec measures one persistent-cache round trip of
// weights_14's implementation record (4415 cell coordinates) through
// the real store: encode, frame and write, then read, verify and decode.
func BenchmarkRecordCodec(b *testing.B) {
	m, rep, _, _ := weights14Probes(b)
	rec, ok := pblock.RecordSearch(pblock.MinCF(fix.dev, m, rep, minCFBenchSearch, pblock.DefaultConfig()))
	if !ok || !rec.Feasible {
		b.Fatal("weights_14 has no cacheable implementation")
	}
	cache, err := implcache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	key := implcache.Key("bench", "weights_14")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cache.Put(key, rec); err != nil {
			b.Fatal(err)
		}
		var got pblock.ImplRecord
		if !cache.Get(key, &got) || len(got.CellAt) != len(rec.CellAt) {
			b.Fatal("stored record did not come back")
		}
	}
}

// BenchmarkCompileCold measures one cold cnvW1A1 compile — no cache, the
// linear sweep, 200 k anneal moves: the cnv-cold op of cmd/bench with
// its allocations. TestCompileColdBytes gates the bytes.
func BenchmarkCompileCold(b *testing.B) {
	f, err := NewFlow("xc7z020")
	if err != nil {
		b.Fatal(err)
	}
	f.SetSearch(0.5, 0.02, 3.0)
	opts := CNVOptions{Stitch: StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 200000}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.RunCNV(MinSweepCF(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteProbe measures one congestion probe in a reused
// route.Scratch, as a search's second and later probes run: 0 allocs.
func BenchmarkRouteProbe(b *testing.B) {
	fixtures(b)
	ti, rep := cnvModule(b, "mvau_l34")
	m, _ := fix.design.Module(ti)
	cfg := pblock.DefaultConfig()
	pb, err := pblock.Build(fix.dev, rep, 1.2, cfg)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := place.Place(fix.dev, m, rep, pb.Rect, cfg.Place)
	if err != nil {
		b.Fatal(err)
	}
	var scratch route.Scratch
	_ = scratch.Route(pl, cfg.Route)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = scratch.Route(pl, cfg.Route)
	}
}

// BenchmarkRouteReject measures the routing probes of the nine
// rectangles weights_14's sweep places but does not route — the block
// on a cold compile's critical lane — one after another in one reused
// route.Scratch: 0 allocs.
func BenchmarkRouteReject(b *testing.B) {
	fixtures(b)
	ti, rep := cnvModule(b, "weights_14")
	m, _ := fix.design.Module(ti)
	cfg := pblock.DefaultConfig()
	var scratch route.Scratch // grown by the sweep to its largest rectangle
	var rejects []*place.Placement
	var last fabric.Rect
	for i := 0; ; i++ {
		cf := math.Round((minCFBenchSearch.Start+float64(i)*minCFBenchSearch.Step)*50) / 50
		if cf > minCFBenchSearch.Max {
			b.Fatal("weights_14: no feasible CF in the bench window")
		}
		pb, err := pblock.Build(fix.dev, rep, cf, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if pb.Rect == last {
			continue
		}
		last = pb.Rect
		pl, err := place.Place(fix.dev, m, rep, pb.Rect, cfg.Place)
		if err != nil {
			continue
		}
		if scratch.Route(pl, cfg.Route).Feasible {
			break
		}
		rejects = append(rejects, pl)
	}
	if len(rejects) != 9 {
		b.Fatalf("weights_14: %d route-rejected rectangles, want 9", len(rejects))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pl := range rejects {
			if scratch.Route(pl, cfg.Route).Feasible {
				b.Fatal("weights_14 routed in a rectangle its sweep rejects")
			}
		}
	}
}

// BenchmarkStitchMoves measures raw SA move throughput.
func BenchmarkStitchMoves(b *testing.B) {
	fixtures(b)
	cfg := stitch.DefaultConfig()
	cfg.Iterations = b.N
	cfg.Seed = 1
	b.ResetTimer()
	_ = stitch.Run(fix.stitch20, cfg)
}

// --- observability overhead --------------------------------------------
//
// The nil-recorder contract: instrumentation with Obs == nil must cost
// at most 1% over the uninstrumented code (gated in scripts/ci.sh; the
// live-recorder cost is `trace.overhead_share` of `bash cmd/bench/run.sh`).
// BenchmarkImplementNoObs calls
// the raw, uninstrumented oracle (pblock.Implement) at a fixed CF over
// the whole cnv block set; BenchmarkImplementObsNil drives the same
// oracle once per block through the instrumented search path
// (pblock.MinCF with a degenerate one-probe window) with a nil
// recorder, so the pair isolates the cost of the disabled span/counter
// calls.

const obsBenchCF = 1.5

// BenchmarkImplementNoObs is the uninstrumented baseline of the
// overhead gate.
func BenchmarkImplementNoObs(b *testing.B) {
	blocks := minCFBenchBlocks(b)
	cfg := pblock.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			_, _ = pblock.Implement(fix.dev, blk.m, blk.rep, obsBenchCF, cfg)
		}
	}
}

// BenchmarkImplementObsNil is the instrumented path with recording
// disabled — the side the ci.sh gate compares against the baseline.
func BenchmarkImplementObsNil(b *testing.B) {
	blocks := minCFBenchBlocks(b)
	cfg := pblock.DefaultConfig()
	// A one-probe window: the search dispatches through every
	// instrumented hook but invokes the oracle exactly once per block,
	// matching BenchmarkImplementNoObs's work.
	s := pblock.SearchConfig{Start: obsBenchCF, Step: 0.02, Max: obsBenchCF}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			_, _ = pblock.MinCF(fix.dev, blk.m, blk.rep, s, cfg)
		}
	}
}

// TestBenchHarnessBuilds: cmd/bench is a module of its own (replace
// macroflow => ../..), so no ./... pattern reaches it, yet its adapter
// calls straight into this package and internal/*. Vetting it from here
// compiles the harness and its tests, so go test ./... fails the moment
// a change to this module stops the benchmark building.
func TestBenchHarnessBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module")
	}
	cmd := exec.Command("go", "vet", ".")
	cmd.Dir = "cmd/bench"
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=-mod=mod")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in cmd/bench: %v\n%s", err, out)
	}
}
