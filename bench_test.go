// Benchmarks regenerating the paper's tables and figures (one benchmark
// per artifact; see DESIGN.md's experiment index) plus micro-benchmarks
// of the substrates. Shared fixtures are built once and reused, so the
// per-iteration numbers measure the experiment's core computation.
package macroflow

import (
	"math"
	"os"
	"os/exec"
	"sync"
	"testing"

	"macroflow/internal/baseline"
	"macroflow/internal/cnv"
	"macroflow/internal/dataset"
	"macroflow/internal/fabric"
	"macroflow/internal/implcache"
	"macroflow/internal/ml"
	"macroflow/internal/netlist"
	"macroflow/internal/obs"
	"macroflow/internal/partition"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/route"
	"macroflow/internal/rtlgen"
	"macroflow/internal/stitch"
	"macroflow/internal/synth"
	"macroflow/internal/timing"
)

// --- shared fixtures ---------------------------------------------------

var fixOnce sync.Once
var fix struct {
	dev      *fabric.Device
	design   *cnv.Design
	dataset  []dataset.Sample
	train    []dataset.Sample
	test     []dataset.Sample
	stitch20 *stitch.Problem // min-CF blocks on xc7z020
}

func fixtures(tb testing.TB) {
	tb.Helper()
	fixOnce.Do(func() {
		fix.dev = fabric.XC7Z020()
		fix.design = cnv.CNVW1A1()
		cfg := dataset.DefaultConfig()
		cfg.Modules = 500
		cfg.Seed = 1
		s, err := dataset.Generate(cfg)
		if err != nil {
			panic(err)
		}
		fix.dataset = dataset.Balance(s, 75, 1)
		fix.train, fix.test = dataset.Split(fix.dataset, 0.8, 1)

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

// --- Table I -----------------------------------------------------------

// BenchmarkTable1 regenerates the Table I comparison: implementing the
// two featured modules at CF 1.5 and at the minimal CF, with timing.
func BenchmarkTable1(b *testing.B) {
	fixtures(b)
	cfg := pblock.DefaultConfig()
	mdl := timing.DefaultModel()
	for _, name := range []string{"mvau_18", "weights_14"} {
		b.Run(name, func(b *testing.B) {
			ti, rep := cnvModule(b, name)
			m, _ := fix.design.Module(ti)
			for i := 0; i < b.N; i++ {
				impl, err := pblock.Implement(fix.dev, m, rep, 1.5, cfg)
				if err != nil {
					b.Fatal(err)
				}
				_ = timing.LongestPath(fix.dev, impl.Placement, impl.Route, mdl)
			}
		})
	}
}

// --- Table II ----------------------------------------------------------

// BenchmarkTable2 trains and evaluates each estimator family on the
// balanced dataset (Table II's rows).
func BenchmarkTable2(b *testing.B) {
	fixtures(b)
	Xtr, ytr := dataset.Vectors(ml.All, fix.train)
	Xte, yte := dataset.Vectors(ml.All, fix.test)
	families := []struct {
		name string
		make func() ml.Model
	}{
		{"DecisionTree", func() ml.Model { return &ml.DecisionTree{MaxDepth: 20, Seed: 1} }},
		{"RandomForest", func() ml.Model { return &ml.RandomForest{Trees: 100, MaxDepth: 20, Seed: 1} }},
		{"NeuralNetwork", func() ml.Model { return &ml.NeuralNet{Hidden: 25, Epochs: 100, Seed: 1} }},
	}
	for _, fam := range families {
		b.Run(fam.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := fam.make()
				if err := m.Fit(Xtr, ytr); err != nil {
					b.Fatal(err)
				}
				_ = ml.MeanRelError(ml.PredictAll(m, Xte), yte)
			}
		})
	}
	b.Run("LinearRegression", func(b *testing.B) {
		Xl, yl := dataset.Vectors(ml.LinRegSet, fix.train)
		Xlt, ylt := dataset.Vectors(ml.LinRegSet, fix.test)
		for i := 0; i < b.N; i++ {
			lr := &ml.LinearRegression{}
			if err := lr.Fit(Xl, yl); err != nil {
				b.Fatal(err)
			}
			_ = ml.MeanRelError(ml.PredictAll(lr, Xlt), ylt)
		}
	})
}

// --- Fig. 3 ------------------------------------------------------------

// BenchmarkFig3 measures the footprint comparison: one detailed
// placement of weights_14 in a loose PBlock, footprint metrics included.
func BenchmarkFig3(b *testing.B) {
	fixtures(b)
	ti, rep := cnvModule(b, "weights_14")
	m, _ := fix.design.Module(ti)
	cfg := pblock.DefaultConfig()
	pb, err := pblock.Build(fix.dev, rep, 1.5, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := place.Place(fix.dev, m, rep, pb.Rect, cfg.Place)
		if err != nil {
			b.Fatal(err)
		}
		_ = pl.Footprint.Irregularity()
	}
}

// --- Fig. 4 ------------------------------------------------------------

// BenchmarkFig4 measures one minimal-CF sweep (the per-block cost of the
// Fig. 4 distribution) on a mid-sized cnv block.
func BenchmarkFig4(b *testing.B) {
	fixtures(b)
	ti, rep := cnvModule(b, "mvau_l12")
	m, _ := fix.design.Module(ti)
	cfg := pblock.DefaultConfig()
	search := pblock.SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pblock.MinCF(fix.dev, m, rep, search, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 5 / Fig. 13 --------------------------------------------------

// BenchmarkFig5 measures the SA stitch of the full 175-instance design
// on the xc7z020 with minimal-CF blocks (single serial chain).
func BenchmarkFig5(b *testing.B) {
	fixtures(b)
	cfg := stitch.DefaultConfig()
	cfg.Iterations = 50000
	var cost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		cost = stitch.Run(fix.stitch20, cfg).FinalCost
	}
	b.ReportMetric(cost, "finalcost")
}

// BenchmarkStitchChains measures the parallel-tempering stitcher on the
// same problem as BenchmarkFig5: four chains on a 40,000-move budget
// versus the serial chain's 50,000. Before timing it asserts the
// quality contract — the multi-chain run must reach at least the serial
// final cost with the smaller budget (aggregated over three seeds; the
// SA is stochastic per seed).
func BenchmarkStitchChains(b *testing.B) {
	fixtures(b)
	serial := stitch.DefaultConfig()
	serial.Iterations = 50000
	chained := stitch.DefaultConfig()
	chained.Iterations = 40000
	chained.Chains = 4
	var serialCost, chainedCost float64
	for seed := int64(0); seed < 3; seed++ {
		serial.Seed, chained.Seed = seed, seed
		serialCost += stitch.Run(fix.stitch20, serial).FinalCost
		chainedCost += stitch.Run(fix.stitch20, chained).FinalCost
	}
	if chainedCost > serialCost {
		b.Errorf("4 chains / 40k moves cost %.1f, worse than serial 50k cost %.1f",
			chainedCost/3, serialCost/3)
	}
	var cost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chained.Seed = int64(i)
		cost = stitch.Run(fix.stitch20, chained).FinalCost
	}
	b.ReportMetric(cost, "finalcost")
}

// --- scaled stitcher backends ------------------------------------------

// stitch10x lazily builds the 10×-cnvW1A1-shaped synthetic stitching
// workload on the xc7z045 (1750 instances; see stitch.Synthetic) shared
// by the analytic/hybrid backend benchmarks.
var stitch10xOnce sync.Once
var stitch10x *stitch.Problem

func synthetic10x() *stitch.Problem {
	stitch10xOnce.Do(func() {
		stitch10x = stitch.Synthetic(fabric.XC7Z045(), 10, 7)
	})
	return stitch10x
}

// totalStitchCost is the objective the stitcher minimizes: wirelength
// plus the per-instance unplaced penalty. Comparing backends on
// FinalCost alone is misleading when they place different instance
// counts.
func totalStitchCost(r *stitch.Result) float64 {
	return r.FinalCost + float64(r.Unplaced)*2000
}

// BenchmarkStitchAnalytic measures the pure gradient-descent backend on
// the 10× synthetic workload — the design size where move-based search
// stops scaling and the analytic placer is the intended seed.
func BenchmarkStitchAnalytic(b *testing.B) {
	p := synthetic10x()
	cfg := stitch.DefaultConfig()
	cfg.Backend = stitch.BackendAnalytic
	var cost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		cost = totalStitchCost(stitch.Run(p, cfg))
	}
	b.ReportMetric(cost, "finalcost")
}

// BenchmarkStitchHybrid measures the hybrid backend on the 10× synthetic
// workload at one third of the annealer's move budget. Before timing it
// asserts the scaling contract — the analytic seed plus 13,333 moves
// must land within 2% of the pure annealer's 40,000-move result
// (aggregated over three seeds; in practice it roughly halves it).
func BenchmarkStitchHybrid(b *testing.B) {
	p := synthetic10x()
	anneal := stitch.DefaultConfig()
	anneal.Iterations = 40000
	anneal.Chains = 4
	hybrid := stitch.DefaultConfig()
	hybrid.Iterations = anneal.Iterations / 3
	hybrid.Chains = 4
	hybrid.Backend = stitch.BackendHybrid
	var annealCost, hybridCost float64
	for seed := int64(0); seed < 3; seed++ {
		anneal.Seed, hybrid.Seed = seed, seed
		annealCost += totalStitchCost(stitch.Run(p, anneal))
		hybridCost += totalStitchCost(stitch.Run(p, hybrid))
	}
	if hybridCost > 1.02*annealCost {
		b.Errorf("hybrid at 1/3 moves cost %.0f, over 102%% of the annealer's %.0f",
			hybridCost/3, annealCost/3)
	}
	var cost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hybrid.Seed = int64(i)
		cost = totalStitchCost(stitch.Run(p, hybrid))
	}
	b.ReportMetric(cost, "finalcost")
}

// BenchmarkStitchAnneal10x is the pure annealer on the same 10×
// workload and full 40,000-move budget — the baseline the hybrid
// benchmark's 1/3-budget numbers are read against.
func BenchmarkStitchAnneal10x(b *testing.B) {
	p := synthetic10x()
	cfg := stitch.DefaultConfig()
	cfg.Iterations = 40000
	cfg.Chains = 4
	var cost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		cost = totalStitchCost(stitch.Run(p, cfg))
	}
	b.ReportMetric(cost, "finalcost")
}

// BenchmarkStitchSharded10x measures the two-shard partitioned stitch
// of the 10× workload: partitioner assignment plus parallel per-shard
// hybrid runs. Before timing it asserts the regression bound — the
// combined objective (shard wirelength + cut weight + the 2000/instance
// unplaced penalty) must stay within 2.5× of the single-device hybrid
// at the same move budget, aggregated over three seeds. Partitioning
// trades quality for parallelism and per-shard isolation (each shard is
// a tighter half-device, so a few percent of instances fail to place);
// the fixed bound is the tripwire for that trade-off regressing.
func BenchmarkStitchSharded10x(b *testing.B) {
	p := synthetic10x()
	set, err := fabric.Shards(fabric.XC7Z045(), 2)
	if err != nil {
		b.Fatal(err)
	}
	hybrid := stitch.DefaultConfig()
	hybrid.Iterations = 40000
	hybrid.Chains = 4
	hybrid.Backend = stitch.BackendHybrid
	sharded := func(seed int64) float64 {
		a, err := partition.Assign(partition.FromStitch(p, set), partition.Config{Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		cfg := hybrid
		cfg.Seed = seed
		sres, err := stitch.RunSharded(p, stitch.ShardsOf(set), a.Member, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return sres.FinalCost + sres.CutWeight + 2000*float64(sres.Unplaced)
	}
	var hybridCost, shardedCost float64
	for seed := int64(0); seed < 3; seed++ {
		hybrid.Seed = seed
		hybridCost += totalStitchCost(stitch.Run(p, hybrid))
		shardedCost += sharded(seed)
	}
	if shardedCost > 2.5*hybridCost {
		b.Errorf("two-shard total %.0f, over 250%% of the single-device hybrid's %.0f",
			shardedCost/3, hybridCost/3)
	}
	var cost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cost = sharded(int64(i))
	}
	b.ReportMetric(cost, "finalcost")
}

// BenchmarkFig5Baseline measures the monolithic full-device placement
// (Fig. 5a).
func BenchmarkFig5Baseline(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		if _, err := baseline.PlaceAll(fix.dev, fix.design); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 7 / Fig. 8 ---------------------------------------------------

// BenchmarkFig7 measures dataset labeling throughput: elaborate,
// optimize and minimal-CF-label a batch of generated modules.
func BenchmarkFig7(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		cfg := dataset.DefaultConfig()
		cfg.Modules = 50
		cfg.Seed = int64(i + 10)
		if _, err := dataset.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 measures the balancing pass.
func BenchmarkFig8(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		_ = dataset.Balance(fix.dataset, 75, int64(i))
	}
}

// --- Fig. 9 / Fig. 12 --------------------------------------------------

// BenchmarkFig9 measures decision-tree training with feature importance
// on the Additional set.
func BenchmarkFig9(b *testing.B) {
	fixtures(b)
	X, y := dataset.Vectors(ml.Additional, fix.train)
	for i := 0; i < b.N; i++ {
		dt := &ml.DecisionTree{MaxDepth: 20, Seed: int64(i)}
		if err := dt.Fit(X, y); err != nil {
			b.Fatal(err)
		}
		_ = dt.FeatureImportance()
	}
}

// BenchmarkFig12 measures random-forest training with importance.
func BenchmarkFig12(b *testing.B) {
	fixtures(b)
	X, y := dataset.Vectors(ml.All, fix.train)
	for i := 0; i < b.N; i++ {
		rf := &ml.RandomForest{Trees: 100, MaxDepth: 20, Seed: int64(i)}
		if err := rf.Fit(X, y); err != nil {
			b.Fatal(err)
		}
		_ = rf.FeatureImportance()
	}
}

// --- Fig. 10 / Fig. 11 -------------------------------------------------

// BenchmarkFig10 measures estimator prediction throughput.
func BenchmarkFig10(b *testing.B) {
	fixtures(b)
	X, y := dataset.Vectors(ml.All, fix.train)
	rf := &ml.RandomForest{Trees: 100, MaxDepth: 20, Seed: 1}
	if err := rf.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	Xte, _ := dataset.Vectors(ml.All, fix.test)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ml.PredictAll(rf, Xte)
	}
}

// BenchmarkFig11 measures feature extraction plus prediction for the cnv
// blocks (the §VIII evaluation path).
func BenchmarkFig11(b *testing.B) {
	fixtures(b)
	X, y := dataset.Vectors(ml.Additional, fix.train)
	nn := &ml.NeuralNet{Hidden: 25, Epochs: 100, Seed: 1}
	if err := nn.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	var reps []place.ShapeReport
	for ti := range fix.design.Types {
		m, _ := fix.design.Module(ti)
		reps = append(reps, place.QuickPlace(m))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rep := range reps {
			_ = nn.Predict(ml.Additional.Vector(ml.Extract(rep)))
		}
	}
}

// --- Tool runs (§VIII) -------------------------------------------------

// BenchmarkToolRuns measures the estimator-seeded refinement procedure
// (estimate, coarse up-steps, fine scan) against the plain sweep.
func BenchmarkToolRuns(b *testing.B) {
	fixtures(b)
	ti, rep := cnvModule(b, "mvau_l34")
	m, _ := fix.design.Module(ti)
	cfg := pblock.DefaultConfig()
	search := pblock.SearchConfig{Start: 0.9, Step: 0.02, Max: 3.0}
	b.Run("FromEstimate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pblock.FromEstimate(fix.dev, m, rep, 0.95, search, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pblock.MinCF(fix.dev, m, rep, search, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
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

// --- substrate micro-benchmarks -----------------------------------------

// BenchmarkSynthElaborate measures elaboration plus optimization of a
// mid-sized generated module.
func BenchmarkSynthElaborate(b *testing.B) {
	spec := rtlgen.Spec{
		Name: "bench",
		Components: []rtlgen.Component{
			rtlgen.RandomLogic{LUTs: 1000, Fanin: 4, Depth: 5, Seed: 9},
			rtlgen.ShiftRegs{Count: 16, Length: 16, ControlSets: 4, Fanin: 4, NoSRL: true},
			rtlgen.SumOfSquares{Width: 16, Terms: 2},
		},
	}
	for i := 0; i < b.N; i++ {
		m, err := synth.Elaborate(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := synth.Optimize(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlaceDetailed measures one detailed placement of a mid-sized
// module into a snug PBlock.
func BenchmarkPlaceDetailed(b *testing.B) {
	fixtures(b)
	ti, rep := cnvModule(b, "mvau_l34")
	m, _ := fix.design.Module(ti)
	cfg := pblock.DefaultConfig()
	pb, err := pblock.Build(fix.dev, rep, 1.2, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := place.Place(fix.dev, m, rep, pb.Rect, cfg.Place); err != nil {
			b.Fatal(err)
		}
	}
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
// calls; BenchmarkImplementObsLive attaches a live recorder for the
// absolute cost of recording.

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

func runImplementObsBench(b *testing.B, rec *obs.Recorder) {
	blocks := minCFBenchBlocks(b)
	cfg := pblock.DefaultConfig()
	// A one-probe window: the search dispatches through every
	// instrumented hook but invokes the oracle exactly once per block,
	// matching BenchmarkImplementNoObs's work.
	s := pblock.SearchConfig{Start: obsBenchCF, Step: 0.02, Max: obsBenchCF, Obs: rec}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			_, _ = pblock.MinCF(fix.dev, blk.m, blk.rep, s, cfg)
		}
	}
}

// BenchmarkImplementObsNil is the instrumented path with recording
// disabled — the side the ci.sh gate compares against the baseline.
func BenchmarkImplementObsNil(b *testing.B) { runImplementObsBench(b, nil) }

// BenchmarkImplementObsLive measures the instrumented path with a live
// recorder attached (ungated; for reference).
func BenchmarkImplementObsLive(b *testing.B) { runImplementObsBench(b, obs.New()) }

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
