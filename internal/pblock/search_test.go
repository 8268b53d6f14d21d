package pblock

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"macroflow/internal/cnv"
	"macroflow/internal/fabric"
	"macroflow/internal/netlist"
	"macroflow/internal/obs"
	"macroflow/internal/place"
	"macroflow/internal/rtlgen"
)

// sampleSpecs returns a deterministic slice of generator specs covering
// the module mix the dataset flow searches over.
func sampleSpecs(n int) []rtlgen.Spec {
	rng := rand.New(rand.NewSource(7))
	return rtlgen.GenerateMix(rng, n)
}

// cnvWindow is the search window every cnvW1A1 compile uses.
var cnvWindow = SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}

// cnvSearchAll runs one search configuration over every cnvW1A1 block.
func cnvSearchAll(t testing.TB, s SearchConfig) []SearchResult {
	t.Helper()
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	d := cnv.CNVW1A1()
	out := make([]SearchResult, len(d.Types))
	for ti := range d.Types {
		m, err := d.Module(ti)
		if err != nil {
			t.Fatal(err)
		}
		res, err := MinCF(dev, m, place.QuickPlace(m), s, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		out[ti] = res
	}
	return out
}

// TestBisectMatchesLinear is the core equivalence property: the bisect
// strategy must return exactly the CF the linear sweep returns (and
// agree on errors), while spending substantially fewer place-and-route
// runs in aggregate. Two inputs: a sample of generated modules, and the
// 74 cnvW1A1 blocks, whose per-block (name, CF, tool runs) sequence is
// pinned — one probe more or fewer anywhere in the gallop, the
// bisection, the confirmation walk or the route scan moves the digest.
func TestBisectMatchesLinear(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	bisect := cnvWindow
	bisect.Strategy = StrategyBisect

	type block struct {
		m   *netlist.Module
		rep place.ShapeReport
	}
	var corpus, cnvBlocks []block
	for _, spec := range sampleSpecs(16) {
		m, rep := module(t, spec)
		corpus = append(corpus, block{m, rep})
	}
	d := cnv.CNVW1A1()
	for ti := range d.Types {
		m, err := d.Module(ti)
		if err != nil {
			t.Fatal(err)
		}
		cnvBlocks = append(cnvBlocks, block{m, place.QuickPlace(m)})
	}

	for _, in := range []struct {
		name   string
		blocks []block
		// The pinned totals and digest of the input ("" leaves it unpinned).
		linRuns, bisRuns int
		digest           string
	}{
		{name: "corpus", blocks: corpus},
		{name: "cnvW1A1", blocks: cnvBlocks, linRuns: 870, bisRuns: 229, digest: "2c2b42738a2b757e"},
	} {
		t.Run(in.name, func(t *testing.T) {
			linRuns, bisRuns, compared := 0, 0, 0
			h := sha256.New()
			for _, b := range in.blocks {
				name := b.m.Name
				lr, lerr := MinCF(dev, b.m, b.rep, cnvWindow, cfg)
				br, berr := MinCF(dev, b.m, b.rep, bisect, cfg)
				if (lerr == nil) != (berr == nil) {
					t.Fatalf("%s: error mismatch: linear %v, bisect %v", name, lerr, berr)
				}
				if lerr != nil {
					if errors.Is(lerr, ErrNoFit) != errors.Is(berr, ErrNoFit) {
						t.Fatalf("%s: error kind mismatch: linear %v, bisect %v", name, lerr, berr)
					}
					continue
				}
				if lr.CF != br.CF {
					t.Fatalf("%s: CF mismatch: linear %.2f, bisect %.2f", name, lr.CF, br.CF)
				}
				if br.Impl == nil || br.Impl.Route.Feasible != true {
					t.Fatalf("%s: bisect returned no feasible implementation", name)
				}
				if br.Impl.PBlock.Rect != lr.Impl.PBlock.Rect {
					t.Fatalf("%s: PBlock mismatch: linear %v, bisect %v", name, lr.Impl.PBlock.Rect, br.Impl.PBlock.Rect)
				}
				fmt.Fprintf(h, "%s %.2f %d\n", name, br.CF, br.ToolRuns)
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
			if in.digest == "" {
				return
			}
			if linRuns != in.linRuns || bisRuns != in.bisRuns {
				t.Errorf("tool runs: linear %d, bisect %d; pinned %d, %d", linRuns, bisRuns, in.linRuns, in.bisRuns)
			}
			if got := hex.EncodeToString(h.Sum(nil)[:8]); got != in.digest {
				t.Errorf("per-block (name, CF, tool runs) digest %s, pinned %s", got, in.digest)
			}
		})
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
		below := TickOf(r.CF - s.Step).CF()
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
	h := rec.BucketHistValue("mincf.probes_per_block")
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
	before := rec.BucketHistValue("mincf.probes_per_block").Count
	if _, err := FromEstimate(dev, m, rep, 1.0, s, cfg); err != nil {
		t.Fatal(err)
	}
	if after := rec.BucketHistValue("mincf.probes_per_block").Count; after != before+1 {
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
		for _, cf := range gridCFs(t, s) {
			if pairs >= 8 {
				break
			}
			pb, err := Build(dev, rep, cf, cfg)
			if err != nil {
				break
			}
			_, ierr := Implement(dev, m, rep, cf, cfg)
			if prev, seen := byRect[pb.Rect]; seen {
				if prev != (ierr == nil) {
					t.Fatalf("%s: rect %v verdict flipped between CFs", spec.Name, pb.Rect)
				}
				pairs++
				continue
			}
			byRect[pb.Rect] = ierr == nil
			// Determinism: the same attempt repeated gives the same verdict.
			_, again := Implement(dev, m, rep, cf, cfg)
			if (ierr == nil) != (again == nil) {
				t.Fatalf("%s: verdict at cf=%.2f not deterministic", spec.Name, cf)
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
		for _, cf := range gridCFs(t, s) {
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

// TestOffGridStepIsAnError: every probed CF is a tick of the 0.02 grid,
// so a step that is not a positive multiple of it made the searches
// probe the same CF over and over (0.001: 411 tool runs where the grid
// step takes 22; 1e-9: never ends). Both searches, under both
// strategies, now return the error before the first probe, and a valid
// step still probes.
func TestOffGridStepIsAnError(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	m, rep := module(t, sampleSpecs(1)[0])
	for _, tc := range []struct {
		step float64
		ok   bool
	}{
		{0.02, true}, {0.04, true}, {0.1, true}, {1, true},
		{0, false}, {-0.02, false}, {0.001, false}, {1e-9, false}, {0.01, false}, {0.03, false}, {math.NaN(), false},
	} {
		rec := obs.New()
		s := SearchConfig{Start: 0.9, Step: tc.step, Max: 3.0, Obs: rec}
		if err := s.Validate(); (err == nil) != tc.ok {
			t.Errorf("step %g: Validate() = %v, want ok=%v", tc.step, err, tc.ok)
		}
		if tc.ok {
			continue
		}
		for _, st := range []Strategy{StrategyLinear, StrategyBisect} {
			s.Strategy = st
			if res, err := MinCF(dev, m, rep, s, cfg); err == nil || res.ToolRuns != 0 {
				t.Errorf("step %g, %s: MinCF = %+v, %v; want an error and no tool run", tc.step, st.name(), res, err)
			}
		}
		if res, err := FromEstimate(dev, m, rep, 1.0, s, cfg); err == nil || res.ToolRuns != 0 {
			t.Errorf("step %g: FromEstimate = %+v, %v; want an error and no tool run", tc.step, res, err)
		}
		if n := rec.CounterValue("mincf.oracle_runs"); n != 0 {
			t.Errorf("step %g: %d oracle runs before the step was rejected", tc.step, n)
		}
	}
}
