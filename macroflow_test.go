package macroflow

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"macroflow/internal/pblock"
)

func TestNewFlowDevices(t *testing.T) {
	for _, name := range []string{"xc7z020", "xc7z045"} {
		f, err := NewFlow(name)
		if err != nil {
			t.Fatal(err)
		}
		d := f.Device()
		if d.Name != name || d.Slices == 0 || d.BRAM == 0 {
			t.Errorf("device info incomplete: %+v", d)
		}
	}
	if _, err := NewFlow("xc7z999"); err == nil {
		t.Error("unknown device must fail")
	}
}

func testSpec(name string) *Spec {
	return NewSpec(name).
		ShiftRegs(6, 12, 2, 3).
		Logic(200, 4, 3).
		SumOfSquares(8, 2)
}

func TestMinCFAndImplementAgree(t *testing.T) {
	f, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	f.SetSearch(0.5, 0.02, 3.0)
	s := testSpec("api_block")
	res, err := f.ImplementBlock(s, MinSweepCF())
	if err != nil {
		t.Fatal(err)
	}
	if res.CF < 0.5 || res.CF > 3.0 {
		t.Fatalf("CF %f out of window", res.CF)
	}
	if res.UsedSlices == 0 || res.PBlock == "" || res.LongestPathNS <= 0 {
		t.Errorf("incomplete result: %+v", res)
	}
	// Implementing at the found CF must succeed in one run.
	impl, err := f.Implement(s, res.CF)
	if err != nil {
		t.Fatal(err)
	}
	if impl.ToolRuns != 1 {
		t.Errorf("direct implement must be one run, got %d", impl.ToolRuns)
	}
}

// TestImplementBlockMatchesCompile: a block implemented alone equals the
// same block compiled as a one-block design, under every CF mode. The
// four tiny specs (EstSlices 1–5) are the rows that need it: implemented
// alone through the estimator they used to get the estimator's CF
// (1.00 / 1.00 / 1.38 / 1.22), while Compile sweeps them per §VIII
// (0.90).
func TestImplementBlockMatchesCompile(t *testing.T) {
	f, est, _ := trainQuick(t, DecisionTree, FeaturesAdditional)
	f.SetSearch(0.9, 0.02, 3.0)
	specs := []*Spec{
		testSpec("full_block"),
		NewSpec("tiny_logic8").Logic(8, 4, 1),
		NewSpec("tiny_logic16").Logic(16, 4, 2),
		NewSpec("tiny_shift").ShiftRegs(2, 4, 1, 2),
		NewSpec("tiny_sos").SumOfSquares(4, 1),
	}
	for _, mc := range []struct {
		name string
		mode CFMode
	}{
		{"minsweep", MinSweepCF()},
		{"constant", ConstantCF(1.5)},
		{"estimator", EstimatorCF(est)},
	} {
		for i, s := range specs {
			t.Run(mc.name+"/"+s.Name(), func(t *testing.T) {
				alone, err := f.ImplementBlock(s, mc.mode)
				if err != nil {
					t.Fatal(err)
				}
				if tiny := pblock.Tiny(alone.EstSlices); tiny != (i > 0) {
					t.Fatalf("EstSlices %d: tiny = %v, want %v", alone.EstSlices, tiny, i > 0)
				}
				d := NewDesign()
				d.AddBlockType(s)
				res, err := f.Compile(d, mc.mode, CompileOptions{SkipStitch: true})
				if err != nil {
					t.Fatal(err)
				}
				if alone != res.Blocks[0] {
					t.Errorf("alone    %+v\nCompile  %+v", alone, res.Blocks[0])
				}
			})
		}
	}
}

// TestConstantCFValidated: a constant CF that is not a finite number > 0
// is refused by CFMode.Validate, and Compile and ImplementBlock return
// that error before any tool run. From NaN or -Inf the escalation never
// passed the window's end; from -2 it spent 34 tool runs climbing to CF
// 1.300000000000001.
func TestConstantCFValidated(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	for _, cf := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -2} {
		mode := ConstantCF(cf)
		if mode.Validate() == nil {
			t.Errorf("ConstantCF(%g).Validate() = nil", cf)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if r, err := f.ImplementBlock(testSpec("const_block"), mode); err == nil || r.ToolRuns != 0 {
				t.Errorf("cf %g: ImplementBlock = %+v, %v; want the CF error and no tool run", cf, r, err)
			}
			rec := NewRecorder()
			res, err := f.Compile(smallDesign(120), mode, CompileOptions{Implement: ImplementOptions{Obs: rec}})
			if err == nil || res != nil || rec.CounterValue("mincf.oracle_runs") != 0 {
				t.Errorf("cf %g: Compile = %v after %d probes; want the CF error and no probe",
					cf, err, rec.CounterValue("mincf.oracle_runs"))
			}
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("cf %g: no return within 20 s", cf)
		}
	}
	for _, cf := range []float64{1e-9, 1.68} {
		if err := ConstantCF(cf).Validate(); err != nil {
			t.Errorf("ConstantCF(%g).Validate() = %v", cf, err)
		}
	}
}

func TestImplementInfeasibleCF(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	if _, err := f.Implement(testSpec("tiny_cf"), 0.05); err == nil {
		t.Error("absurdly small CF must fail")
	}
}

func TestFeaturesExposed(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	feats, err := f.Features(testSpec("feat_block"))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"LUTs", "FFs", "Carry", "CtrlSets", "MaxFanout", "Density", "Carry/All"} {
		if _, ok := feats[k]; !ok {
			t.Errorf("feature %q missing", k)
		}
	}
	if feats["LUTs"] <= 0 || feats["FFs"] <= 0 {
		t.Error("non-positive core features")
	}
}

func TestSpecBuilderAccumulates(t *testing.T) {
	s := NewSpec("builder").ShiftRegs(1, 2, 1, 1).Memory(4, 64).SRLs(2, 32, 1).
		DistributedMemory(4, 32).LFSRs(2, 8, true, false).Logic(10, 3, 2).SumOfSquares(4, 1)
	if s.Name() != "builder" {
		t.Error("name lost")
	}
	if len(s.inner.Components) != 7 {
		t.Errorf("components = %d, want 7", len(s.inner.Components))
	}
}

func trainQuick(t *testing.T, kind EstimatorKind, fs FeatureSetKind) (*Flow, *Estimator, TrainReport) {
	t.Helper()
	f, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	est, rep, err := f.TrainEstimator(kind, fs, TrainOptions{
		Modules: 150, Seed: 3, Trees: 40, Epochs: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, est, rep
}

func TestTrainEstimatorDecisionTree(t *testing.T) {
	f, est, rep := trainQuick(t, DecisionTree, FeaturesAdditional)
	if rep.MeanRelError <= 0 || rep.MeanRelError > 0.5 {
		t.Errorf("implausible error %.3f", rep.MeanRelError)
	}
	if rep.Importance == nil || len(rep.TopFeatures()) == 0 {
		t.Error("tree models must report importance")
	}
	sum := 0.0
	for _, v := range rep.Importance {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("importance sums to %f", sum)
	}
	// The estimator must be usable end to end.
	s := testSpec("predict_me")
	cf, err := f.PredictSpec(est, s)
	if err != nil {
		t.Fatal(err)
	}
	if cf < 0.3 || cf > 3 {
		t.Errorf("prediction %f out of plausible range", cf)
	}
	res, err := f.ImplementBlock(s, EstimatorCF(est))
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedSlices == 0 {
		t.Error("estimator-driven implement produced nothing")
	}
}

func TestTrainEstimatorLinRegIgnoresFeatureSet(t *testing.T) {
	_, est, rep := trainQuick(t, LinearRegression, FeaturesClassical)
	if est.Kind() != LinearRegression {
		t.Error("kind lost")
	}
	if rep.Importance != nil {
		t.Error("linear regression has no importance")
	}
}

func TestTrainEstimatorUnknownKind(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	if _, _, err := f.TrainEstimator("nope", FeaturesAll, TrainOptions{Modules: 20}); err == nil {
		t.Error("unknown kind must fail")
	}
	if _, _, err := f.TrainEstimator(DecisionTree, "nope", TrainOptions{Modules: 20}); err == nil {
		t.Error("unknown feature set must fail")
	}
}

func TestRunCNVSkipStitch(t *testing.T) {
	if testing.Short() {
		t.Skip("cnv flow in -short mode")
	}
	f, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	f.SetSearch(0.5, 0.02, 3.0)
	res, err := f.RunCNV(MinSweepCF(), CNVOptions{SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 74 {
		t.Errorf("unique blocks = %d, want 74", len(res.Blocks))
	}
	total := 0
	for _, n := range res.Instances {
		total += n
	}
	if total != 175 {
		t.Errorf("instances = %d, want 175", total)
	}
	if res.TotalToolRuns < 74 {
		t.Errorf("tool runs = %d, want at least one per block", res.TotalToolRuns)
	}
}

func TestRunCNVWithStitch(t *testing.T) {
	if testing.Short() {
		t.Skip("cnv stitch in -short mode")
	}
	f, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	f.SetSearch(0.5, 0.02, 3.0)
	res, err := f.RunCNV(MinSweepCF(), CNVOptions{Stitch: StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 20000}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stitch.Placed+res.Stitch.Unplaced != 175 {
		t.Errorf("placed+unplaced = %d, want 175", res.Stitch.Placed+res.Stitch.Unplaced)
	}
	if res.Stitch.Placed == 0 {
		t.Error("nothing placed")
	}
	if !strings.Contains(res.Stitch.Map, "\n") {
		t.Error("placement map missing")
	}
	// cnvW1A1 at minimal CFs must not fully fit on the xc7z020 (the
	// paper's central observation).
	if res.Stitch.Unplaced == 0 {
		t.Error("the design should overflow the xc7z020")
	}
}

func TestRunCNVBaselineSucceeds(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline in -short mode")
	}
	f, _ := NewFlow("xc7z020")
	util, used, err := f.RunCNVBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if used == 0 || util <= 0.5 || util > 1 {
		t.Errorf("baseline implausible: used=%d util=%f", used, util)
	}
}

func TestModuleResultString(t *testing.T) {
	r := ModuleResult{Name: "x", CF: 1.1, UsedSlices: 10, EstSlices: 9, PBlock: "P", ToolRuns: 2, LongestPathNS: 3.5}
	s := r.String()
	for _, want := range []string{"x", "1.10", "10", "P"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestEstimatorSaveLoadRoundTrip(t *testing.T) {
	f, est, _ := trainQuick(t, RandomForest, FeaturesAdditional)
	s := testSpec("roundtrip_probe")
	want, err := f.PredictSpec(est, s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveEstimator(&buf, est); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != RandomForest {
		t.Errorf("kind = %s", got.Kind())
	}
	pred, err := f.PredictSpec(got, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-want) > 1e-12 {
		t.Errorf("prediction changed after round trip: %f vs %f", pred, want)
	}
}

func TestLoadEstimatorRejectsGarbage(t *testing.T) {
	if _, err := LoadEstimator(strings.NewReader("junk")); err == nil {
		t.Error("garbage must fail")
	}
	if err := SaveEstimator(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil estimator must fail")
	}
}

func TestEstimatorWithBias(t *testing.T) {
	f, est, _ := trainQuick(t, DecisionTree, FeaturesAll)
	s := testSpec("bias_probe")
	base, err := f.PredictSpec(est, s)
	if err != nil {
		t.Fatal(err)
	}
	up, err := f.PredictSpec(est.WithBias(0.1), s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(up-(base+0.1)) > 1e-12 {
		t.Errorf("bias not applied: %f vs %f+0.1", up, base)
	}
}

func TestDumpNetlist(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	var buf bytes.Buffer
	if err := f.DumpNetlist(&buf, testSpec("dump_me")); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "module dump_me") {
		t.Errorf("dump header wrong: %q", buf.String()[:40])
	}
	if !strings.Contains(buf.String(), "cell LUT") {
		t.Error("dump missing cells")
	}
}

func smallDesign(workerLUTs int) *Design {
	d := NewDesign()
	a := d.AddBlockType(NewSpec("blk_a").Logic(80, 4, 2).ShiftRegs(2, 8, 1, 2))
	b := d.AddBlockType(NewSpec("blk_b").Logic(workerLUTs, 4, 3).SumOfSquares(6, 2))
	ia, _ := d.AddInstance(a, "a0")
	for i := 0; i < 4; i++ {
		ib, _ := d.AddInstance(b, "b")
		_ = d.Connect(ia, ib, 16)
	}
	return d
}

func TestCompileGenericDesign(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	res, err := f.Compile(smallDesign(120), MinSweepCF(), CompileOptions{Stitch: StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 8000}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(res.Blocks))
	}
	if res.Stitch.Placed != 5 || res.Stitch.Unplaced != 0 {
		t.Errorf("placed/unplaced = %d/%d, want 5/0", res.Stitch.Placed, res.Stitch.Unplaced)
	}
	if res.ToolRuns < 2 {
		t.Errorf("tool runs = %d", res.ToolRuns)
	}
}

func TestCompileCacheReuse(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	cache := NewBlockCache()
	first, err := f.Compile(smallDesign(120), MinSweepCF(), CompileOptions{Implement: ImplementOptions{Cache: cache}, SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHits != 0 {
		t.Errorf("first compile must not hit the cache")
	}
	// Change one block: the other must be served from the cache.
	second, err := f.Compile(smallDesign(200), MinSweepCF(), CompileOptions{Implement: ImplementOptions{Cache: cache}, SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", second.CacheHits)
	}
	if second.ToolRuns >= first.ToolRuns {
		t.Errorf("changed-block recompile must be cheaper: %d vs %d", second.ToolRuns, first.ToolRuns)
	}
	// Unchanged rebuild: zero tool runs.
	third, err := f.Compile(smallDesign(200), MinSweepCF(), CompileOptions{Implement: ImplementOptions{Cache: cache}, SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if third.ToolRuns != 0 || third.CacheHits != 2 {
		t.Errorf("unchanged rebuild: runs=%d hits=%d, want 0/2", third.ToolRuns, third.CacheHits)
	}
	if cache.Len() != 3 {
		t.Errorf("cache size = %d, want 3", cache.Len())
	}
}

func TestDesignValidation(t *testing.T) {
	d := NewDesign()
	if _, err := d.AddInstance(0, "x"); err == nil {
		t.Error("instance of missing type must fail")
	}
	ti := d.AddBlockType(NewSpec("t").Logic(20, 3, 2))
	i0, _ := d.AddInstance(ti, "i0")
	if err := d.Connect(i0, 99, 8); err == nil {
		t.Error("out-of-range connect must fail")
	}
	if err := d.Connect(i0, i0, MaxNetWidth); err != nil {
		t.Errorf("connect at MaxNetWidth: %v", err)
	}
	if err := d.Connect(i0, i0, 1<<40); !errors.Is(err, ErrNetWidth) {
		t.Errorf("connect of width 2^40 = %v, want ErrNetWidth", err)
	}
	f, _ := NewFlow("xc7z020")
	if _, err := f.Compile(NewDesign(), MinSweepCF(), CompileOptions{}); err == nil {
		t.Error("empty design must fail")
	}
}
