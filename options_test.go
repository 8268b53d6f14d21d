package macroflow

import (
	"reflect"
	"strings"
	"testing"
)

// TestSearchStrategyOverride: switching a flow's search strategy must
// yield the same correction factors with fewer tool runs.
func TestSearchStrategyOverride(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	f.SetSearchStrategy(SearchLinear)
	linear, err := f.Compile(smallDesign(120), MinSweepCF(), CompileOptions{SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	f.SetSearchStrategy(SearchBisect)
	bisect, err := f.Compile(smallDesign(120), MinSweepCF(), CompileOptions{SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range linear.Blocks {
		if linear.Blocks[i].CF != bisect.Blocks[i].CF {
			t.Errorf("block %s: linear CF %.2f != bisect CF %.2f",
				linear.Blocks[i].Name, linear.Blocks[i].CF, bisect.Blocks[i].CF)
		}
	}
	if bisect.Blocks[0].ToolRuns >= linear.Blocks[0].ToolRuns {
		t.Errorf("bisect should need fewer tool runs: %d vs %d",
			bisect.Blocks[0].ToolRuns, linear.Blocks[0].ToolRuns)
	}
}

// TestIterToReachFinalCost: the stitch trace must always end with a
// sample at FinalCost, so IterToReach(FinalCost) never returns -1 —
// serial or chained, converged or overflowing.
func TestIterToReachFinalCost(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	for _, chains := range []int{0, 3} {
		res, err := f.Compile(smallDesign(120), MinSweepCF(), CompileOptions{
			Stitch: StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 5000, Chains: chains}}})
		if err != nil {
			t.Fatal(err)
		}
		if it := res.Stitch.IterToReach(res.Stitch.FinalCost); it < 0 {
			t.Errorf("chains=%d: IterToReach(FinalCost) = -1", chains)
		}
		if it := res.Stitch.IterToReach(res.Stitch.FinalCost - 1); it != -1 {
			t.Errorf("chains=%d: unreachable cost should give -1, got %d", chains, it)
		}
	}
}

// TestCompileMultiChainDeterministic: the multi-chain path through the
// public API is reproducible and reports per-chain telemetry.
func TestCompileMultiChainDeterministic(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	opts := CompileOptions{Stitch: StitchOptions{Seed: 4, Anneal: AnnealOptions{Iterations: 9000, Chains: 3}}}
	a, err := f.Compile(smallDesign(120), MinSweepCF(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Compile(smallDesign(120), MinSweepCF(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Stitch, b.Stitch) {
		t.Error("multi-chain compile not reproducible")
	}
	if len(a.Stitch.Chains) != 3 {
		t.Fatalf("chain reports = %d, want 3", len(a.Stitch.Chains))
	}
	moves := 0
	for _, ch := range a.Stitch.Chains {
		moves += ch.Moves
	}
	if moves != a.Stitch.Iterations {
		t.Errorf("sum of chain moves %d != Iterations %d", moves, a.Stitch.Iterations)
	}
}

// TestStitchProgressCallback: Progress fires from the calling goroutine
// with ordered per-chain samples.
func TestStitchProgressCallback(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	type sample struct {
		chain, iter int
	}
	var got []sample
	_, err := f.Compile(smallDesign(120), MinSweepCF(), CompileOptions{
		Stitch: StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 6000, Chains: 2},
			Progress: func(chain, iter int, cost float64) {
				got = append(got, sample{chain, iter})
			}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no progress samples")
	}
	seen := map[int]bool{}
	for _, s := range got {
		seen[s.chain] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("progress must cover both chains, saw %v", seen)
	}
}

// TestTraceEveryOption: the trace sampling interval is configurable,
// echoed in the report, and defaults to 256.
func TestTraceEveryOption(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	def, err := f.Compile(smallDesign(120), MinSweepCF(),
		CompileOptions{Stitch: StitchOptions{Seed: 3, Anneal: AnnealOptions{Iterations: 8000}}})
	if err != nil {
		t.Fatal(err)
	}
	if def.Stitch.TraceEvery != 256 {
		t.Errorf("default TraceEvery = %d, want 256", def.Stitch.TraceEvery)
	}
	fine, err := f.Compile(smallDesign(120), MinSweepCF(),
		CompileOptions{Stitch: StitchOptions{Seed: 3, Anneal: AnnealOptions{Iterations: 8000}, TraceEvery: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Stitch.TraceEvery != 100 {
		t.Errorf("TraceEvery = %d, want 100", fine.Stitch.TraceEvery)
	}
	if len(fine.Stitch.Trace) <= len(def.Stitch.Trace) {
		t.Errorf("finer sampling must yield more trace points: %d vs %d",
			len(fine.Stitch.Trace), len(def.Stitch.Trace))
	}
	for _, p := range fine.Stitch.Trace[:len(fine.Stitch.Trace)-1] {
		if p.Iter%100 != 0 {
			t.Fatalf("trace point at iter %d is off the TraceEvery grid", p.Iter)
		}
	}
}

// TestOptionsValidate drives the consolidated Validate() methods over
// good and bad option sets; RunCNV, Compile and the macroflowd request
// decoder all reject through these same messages.
func TestOptionsValidate(t *testing.T) {
	stitchCases := []struct {
		name string
		o    StitchOptions
		ok   bool
	}{
		{"zero", StitchOptions{}, true},
		{"full", StitchOptions{Seed: 1, Backend: BackendHybrid, Check: CheckSampled,
			Anneal: AnnealOptions{Iterations: 100, Chains: 2}, Analytic: AnalyticOptions{GDIterations: 10}}, true},
		{"bad-backend", StitchOptions{Backend: "bogus"}, false},
		{"bad-check", StitchOptions{Check: CheckLevel(42)}, false},
		{"structured-full", StitchOptions{Backend: BackendHybrid,
			Anneal:   AnnealOptions{Chains: 4, Iterations: 100},
			Analytic: AnalyticOptions{GDIterations: 64}}, true},
		{"negative-anneal-iterations", StitchOptions{Anneal: AnnealOptions{Iterations: -1}}, false},
		{"negative-anneal-chains", StitchOptions{Anneal: AnnealOptions{Chains: -1}}, false},
		{"negative-analytic-gd", StitchOptions{Analytic: AnalyticOptions{GDIterations: -1}}, false},
	}
	for _, tc := range stitchCases {
		if err := tc.o.Validate(); (err == nil) != tc.ok {
			t.Errorf("StitchOptions %s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	implCases := []struct {
		name string
		o    ImplementOptions
		ok   bool
	}{
		{"zero", ImplementOptions{}, true},
		{"full", ImplementOptions{Workers: 2, Check: CheckFull}, true},
		{"negative-workers", ImplementOptions{Workers: -1}, false},
		{"bad-check", ImplementOptions{Check: CheckLevel(-1)}, false},
	}
	for _, tc := range implCases {
		if err := tc.o.Validate(); (err == nil) != tc.ok {
			t.Errorf("ImplementOptions %s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestCompileValidatesOptions: bad options must fail Compile and RunCNV
// before any implementation work, with the Validate() message.
func TestCompileValidatesOptions(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	if _, err := f.Compile(smallDesign(120), MinSweepCF(),
		CompileOptions{Stitch: StitchOptions{Backend: "bogus"}}); err == nil {
		t.Error("Compile accepted an unknown stitch backend")
	}
	if _, err := f.Compile(smallDesign(120), MinSweepCF(),
		CompileOptions{Implement: ImplementOptions{Workers: -1}}); err == nil {
		t.Error("Compile accepted negative Workers")
	}
	if _, err := f.RunCNV(MinSweepCF(),
		CNVOptions{Stitch: StitchOptions{Anneal: AnnealOptions{Iterations: -5}}}); err == nil {
		t.Error("RunCNV accepted a negative iteration budget")
	}
}

// TestOffGridSearchStepRejected: SetSearch(0.9, 0.001, 3.0) used to
// return this block's CF 1.32 after 411 tool runs instead of the grid
// step's 22 — every 0.02 grid CF probed twenty times. The single-block
// searches now return the step error, and Compile returns it before any
// block starts (nothing searched, nothing cached).
func TestOffGridSearchStepRejected(t *testing.T) {
	spec := func() *Spec { return NewSpec("blk").ShiftRegs(8, 16, 4, 6).SumOfSquares(12, 2) }
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	r, err := f.ImplementBlock(spec(), MinSweepCF())
	if err != nil || r.CF != 1.32 || r.ToolRuns != 22 {
		t.Fatalf("grid step: CF %.2f in %d tool runs (%v), want 1.32 in 22", r.CF, r.ToolRuns, err)
	}
	for _, step := range []float64{0.001, 1e-4, 1e-9} {
		f.SetSearch(0.9, step, 3.0)
		const want = "is not a positive multiple of the 0.02 CF grid"
		if r, err := f.ImplementBlock(spec(), MinSweepCF()); err == nil || !strings.Contains(err.Error(), want) || r.ToolRuns != 0 {
			t.Errorf("step %g: ImplementBlock = %+v, %v; want the step error and no tool run", step, r, err)
		}
		cache := NewBlockCache()
		rec := NewRecorder()
		_, err := f.Compile(smallDesign(120), MinSweepCF(),
			CompileOptions{Implement: ImplementOptions{Cache: cache, Obs: rec}, SkipStitch: true})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("step %g: Compile = %v, want the step error", step, err)
		}
		if cache.Len() != 0 || cache.Stats() != (CacheStats{}) || len(rec.Spans()) != 0 {
			t.Errorf("step %g: Compile started work before rejecting the step: cache %+v, %d spans",
				step, cache.Stats(), len(rec.Spans()))
		}
	}
}

// TestRecorderDoesNotPerturbResults: attaching a recorder must leave
// every numeric output bit-identical — observability observes, it never
// feeds back. Also checks the expected span names show up.
func TestRecorderDoesNotPerturbResults(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	opts := func(rec *Recorder) CompileOptions {
		return CompileOptions{
			Stitch:    StitchOptions{Seed: 5, Anneal: AnnealOptions{Iterations: 8000, Chains: 2}, Obs: rec},
			Implement: ImplementOptions{Obs: rec},
		}
	}
	plain, err := f.Compile(smallDesign(120), MinSweepCF(), opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	traced, err := f.Compile(smallDesign(120), MinSweepCF(), opts(rec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Error("recorder changed the compile result")
	}
	names := map[string]bool{}
	for _, s := range rec.Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"flow.compile", "implement.block", "synth.elaborate",
		"place.quick", "search.mincf", "oracle.probe", "stitch.chains", "stitch.chain"} {
		if !names[want] {
			t.Errorf("span %q missing (got %v)", want, names)
		}
	}
	if rec.CounterValue("mincf.oracle_runs") == 0 {
		t.Error("mincf.oracle_runs not counted")
	}
	if rec.CounterValue("stitch.moves") == 0 {
		t.Error("stitch.moves not counted")
	}
}
