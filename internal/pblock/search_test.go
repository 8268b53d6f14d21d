package pblock

import (
	"errors"
	"math/rand"
	"testing"

	"macroflow/internal/fabric"
	"macroflow/internal/obs"
	"macroflow/internal/rtlgen"
)

// sampleSpecs returns a deterministic slice of generator specs covering
// the module mix the dataset flow searches over.
func sampleSpecs(n int) []rtlgen.Spec {
	rng := rand.New(rand.NewSource(7))
	return rtlgen.GenerateMix(rng, n)
}

// TestBisectMatchesLinear is the core equivalence property: for a sample
// of generated modules, the bisect strategy must return exactly the CF
// the linear sweep returns (and agree on errors), while spending
// substantially fewer place-and-route runs in aggregate.
func TestBisectMatchesLinear(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	linear := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}
	bisect := linear
	bisect.Strategy = StrategyBisect

	linRuns, bisRuns, compared := 0, 0, 0
	for _, spec := range sampleSpecs(16) {
		m, rep := module(t, spec)
		lr, lerr := MinCF(dev, m, rep, linear, cfg)
		br, berr := MinCF(dev, m, rep, bisect, cfg)
		if (lerr == nil) != (berr == nil) {
			t.Fatalf("%s: error mismatch: linear %v, bisect %v", spec.Name, lerr, berr)
		}
		if lerr != nil {
			if errors.Is(lerr, ErrNoFit) != errors.Is(berr, ErrNoFit) {
				t.Fatalf("%s: error kind mismatch: linear %v, bisect %v", spec.Name, lerr, berr)
			}
			continue
		}
		if lr.CF != br.CF {
			t.Fatalf("%s: CF mismatch: linear %.2f, bisect %.2f", spec.Name, lr.CF, br.CF)
		}
		if br.Impl == nil || br.Impl.Route.Feasible != true {
			t.Fatalf("%s: bisect returned no feasible implementation", spec.Name)
		}
		if br.Impl.PBlock.Rect != lr.Impl.PBlock.Rect {
			t.Fatalf("%s: PBlock mismatch: linear %v, bisect %v", spec.Name, lr.Impl.PBlock.Rect, br.Impl.PBlock.Rect)
		}
		linRuns += lr.ToolRuns
		bisRuns += br.ToolRuns
		compared++
	}
	if compared == 0 {
		t.Fatal("no modules compared")
	}
	if bisRuns*3 > linRuns {
		t.Errorf("bisect used %d runs vs linear %d: want at least 3x fewer", bisRuns, linRuns)
	}
	t.Logf("aggregate over %d modules: linear %d runs, bisect %d runs (%.1fx)",
		compared, linRuns, bisRuns, float64(linRuns)/float64(bisRuns))
}

// TestBisectParallelDeterministic checks the speculative-probe merge:
// the returned CF must be bit-identical for any Workers setting.
func TestBisectParallelDeterministic(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	for _, spec := range sampleSpecs(6) {
		m, rep := module(t, spec)
		base := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0, Strategy: StrategyBisect}
		ref, refErr := MinCF(dev, m, rep, base, cfg)
		for _, w := range []int{2, 5, 16} {
			s := base
			s.Workers = w
			r, err := MinCF(dev, m, rep, s, cfg)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s workers=%d: error mismatch: %v vs %v", spec.Name, w, err, refErr)
			}
			if err == nil && r.CF != ref.CF {
				t.Fatalf("%s workers=%d: CF %.2f, want %.2f", spec.Name, w, r.CF, ref.CF)
			}
		}
	}
}

// TestBisectBoundaryConfirmed checks the linear-confirmation invariant:
// whenever the returned CF is above the window start, the grid point
// just below it must actually be infeasible — the bisection cannot have
// skipped over an earlier feasible CF.
func TestBisectBoundaryConfirmed(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	s := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0, Strategy: StrategyBisect}
	confirmed := 0
	for _, spec := range sampleSpecs(10) {
		m, rep := module(t, spec)
		r, err := MinCF(dev, m, rep, s, cfg)
		if err != nil || r.CF <= s.Start {
			continue
		}
		below := roundCF(r.CF - s.Step)
		if _, ierr := Implement(dev, m, rep, below, cfg); ierr == nil {
			t.Errorf("%s: returned CF %.2f but %.2f is also feasible", spec.Name, r.CF, below)
		}
		confirmed++
	}
	if confirmed == 0 {
		t.Skip("no module with a CF above the window start in the sample")
	}
}

// TestBisectNoFeasibleParity checks that an exhausted window produces
// the same no-feasible error as the linear sweep.
func TestBisectNoFeasibleParity(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	m, rep := module(t, rtlgen.Spec{
		Name: "dense",
		Components: []rtlgen.Component{
			rtlgen.RandomLogic{LUTs: 900, Fanin: 6, Depth: 4, Seed: 3},
		},
	})
	// A window capped below any feasible CF.
	lin := SearchConfig{Start: 0.10, Step: 0.02, Max: 0.16}
	bis := lin
	bis.Strategy = StrategyBisect
	_, lerr := MinCF(dev, m, rep, lin, cfg)
	_, berr := MinCF(dev, m, rep, bis, cfg)
	if lerr == nil || berr == nil {
		t.Fatalf("expected both strategies to fail: linear %v, bisect %v", lerr, berr)
	}
	if lerr.Error() != berr.Error() {
		t.Fatalf("error mismatch: linear %q, bisect %q", lerr, berr)
	}
}

// TestBisectNoFitParity checks that a module that exceeds the device
// yields ErrNoFit from both strategies.
func TestBisectNoFitParity(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	m, rep := module(t, rtlgen.Spec{
		Name: "huge",
		Components: []rtlgen.Component{
			rtlgen.RandomLogic{LUTs: 20000, Fanin: 6, Depth: 4, Seed: 3},
		},
	})
	lin := SearchConfig{Start: 0.9, Step: 0.02, Max: 3.0}
	bis := lin
	bis.Strategy = StrategyBisect
	_, lerr := MinCF(dev, m, rep, lin, cfg)
	_, berr := MinCF(dev, m, rep, bis, cfg)
	if !errors.Is(lerr, ErrNoFit) {
		t.Fatalf("linear error %v, want ErrNoFit", lerr)
	}
	if !errors.Is(berr, ErrNoFit) {
		t.Fatalf("bisect error %v, want ErrNoFit like linear", berr)
	}
}

// TestProbesPerBlockHistogram checks the solver-health metric: every
// observed MinCF / FromEstimate call that actually probed the tool
// contributes one mincf.probes_per_block sample equal to its ToolRuns
// (a block the cache serves adds none: TestReadThrough).
func TestProbesPerBlockHistogram(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	rec := obs.New()
	s := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0, Strategy: StrategyBisect, Obs: rec}

	specs := sampleSpecs(4)
	searched := 0
	totalRuns := 0
	for _, spec := range specs {
		m, rep := module(t, spec)
		r, err := MinCF(dev, m, rep, s, cfg)
		if err != nil {
			continue
		}
		searched++
		totalRuns += r.ToolRuns
	}
	if searched == 0 {
		t.Fatal("no module searched")
	}
	h := rec.HistogramValue("mincf.probes_per_block")
	if h.Count != int64(searched) {
		t.Errorf("probes_per_block count = %d, want %d (one sample per searched block)", h.Count, searched)
	}
	if h.Sum != float64(totalRuns) {
		t.Errorf("probes_per_block sum = %g, want %d (total tool runs)", h.Sum, totalRuns)
	}
	if h.Min < 1 {
		t.Errorf("probes_per_block min = %g, want >= 1 (zero-run searches are excluded)", h.Min)
	}

	// FromEstimate feeds the same histogram.
	m, rep := module(t, specs[0])
	before := rec.HistogramValue("mincf.probes_per_block").Count
	if _, err := FromEstimate(dev, m, rep, 1.0, s, cfg); err != nil {
		t.Fatal(err)
	}
	if after := rec.HistogramValue("mincf.probes_per_block").Count; after != before+1 {
		t.Errorf("FromEstimate added %d samples, want 1", after-before)
	}
}

// TestOracleVerdictPureInRect asserts the soundness premise of the
// prober's rectangle memoization: the place-and-route verdict is a
// deterministic pure function of the rectangle. Two grid CFs that round
// to the same rectangle must produce identical placements and route
// verdicts, and repeating an implement attempt must reproduce it.
func TestOracleVerdictPureInRect(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	s := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}
	for _, spec := range sampleSpecs(6) {
		m, rep := module(t, spec)
		byRect := map[fabric.Rect]bool{} // rect -> feasible verdict
		pairs := 0
		for i := 0; i <= s.lastIndex() && pairs < 8; i++ {
			pb, err := Build(dev, rep, s.cfAt(i), cfg)
			if err != nil {
				break
			}
			_, ierr := Implement(dev, m, rep, s.cfAt(i), cfg)
			if prev, seen := byRect[pb.Rect]; seen {
				if prev != (ierr == nil) {
					t.Fatalf("%s: rect %v verdict flipped between CFs", spec.Name, pb.Rect)
				}
				pairs++
				continue
			}
			byRect[pb.Rect] = ierr == nil
			// Determinism: the same attempt repeated gives the same verdict.
			_, again := Implement(dev, m, rep, s.cfAt(i), cfg)
			if (ierr == nil) != (again == nil) {
				t.Fatalf("%s: verdict at cf=%.2f not deterministic", spec.Name, s.cfAt(i))
			}
		}
	}
}

// TestBisectMinimalityExhaustive verifies the bisect result against an
// exhaustive grid scan that is independent of minCFLinear: every grid
// index strictly below the returned CF must be infeasible, and the
// returned CF itself feasible. Place feasibility is NOT monotone in the
// CF (aspect flips carve place-legal pockets between failure bands), so
// this exhaustive confirmation — rather than a monotonicity argument —
// is what certifies the boundary.
func TestBisectMinimalityExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid scan")
	}
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	s := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0, Strategy: StrategyBisect}
	for _, spec := range sampleSpecs(10) {
		m, rep := module(t, spec)
		r, err := MinCF(dev, m, rep, s, cfg)
		if err != nil {
			continue
		}
		if _, ierr := Implement(dev, m, rep, r.CF, cfg); ierr != nil {
			t.Errorf("%s: returned CF %.2f is not feasible: %v", spec.Name, r.CF, ierr)
		}
		for i := 0; i <= s.lastIndex(); i++ {
			cf := s.cfAt(i)
			if cf >= r.CF {
				break
			}
			if _, ierr := Implement(dev, m, rep, cf, cfg); ierr == nil {
				t.Errorf("%s: returned CF %.2f but %.2f below it is feasible", spec.Name, r.CF, cf)
				break
			}
		}
	}
}
