package stitch

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"macroflow/internal/fabric"
)

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
	}{
		{"", BackendAnneal},
		{"anneal", BackendAnneal},
		{"analytic", BackendAnalytic},
		{"hybrid", BackendHybrid},
	} {
		got, err := ParseBackend(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	// Removed solvers are unknown spellings like any other, and the
	// message lists exactly what is left.
	for _, bad := range []string{"gradient", "evo", "portfolio"} {
		_, err := ParseBackend(bad)
		if err == nil || !strings.Contains(err.Error(), "want anneal, analytic or hybrid") {
			t.Errorf("ParseBackend(%q) = %v, want an error listing anneal, analytic or hybrid", bad, err)
		}
	}
}

// TestAnnealBackendIsDefault: the explicit "anneal" spelling and the
// zero value must be the same code path, bit for bit.
func TestAnnealBackendIsDefault(t *testing.T) {
	cfg := Config{Seed: 7, Iterations: 8000, Chains: 2}
	def := Run(smallProblem(t, 12), cfg)
	cfg.Backend = BackendAnneal
	named := Run(smallProblem(t, 12), cfg)
	if !reflect.DeepEqual(def, named) {
		t.Error(`Backend:"anneal" diverged from the zero-value default`)
	}
}

// TestAnalyticDeterministicAcrossRuns: both new backends must be pure
// functions of (Seed, Chains, Backend).
func TestAnalyticDeterministicAcrossRuns(t *testing.T) {
	for _, be := range []Backend{BackendAnalytic, BackendHybrid} {
		for _, k := range []int{0, 4} {
			cfg := Config{Seed: 7, Iterations: 8000, Chains: k, Backend: be}
			a := Run(smallProblem(t, 12), cfg)
			b := Run(smallProblem(t, 12), cfg)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("backend=%s chains=%d: two runs with the same config differ", be, k)
			}
		}
	}
}

// TestAnalyticDeterministicAcrossGOMAXPROCS: the descent runs on the
// calling goroutine and sums its density partials and gradient norm
// over a fixed tiling in tile order, and the hybrid's chains fan out
// on a fixed schedule, so core count must not leak into the result.
// ci.sh runs this under -race at GOMAXPROCS=4.
func TestAnalyticDeterministicAcrossGOMAXPROCS(t *testing.T) {
	for _, be := range []Backend{BackendAnalytic, BackendHybrid} {
		cfg := Config{Seed: 3, Iterations: 12000, Chains: 4, Backend: be}
		prev := runtime.GOMAXPROCS(1)
		a := Run(smallProblem(t, 12), cfg)
		runtime.GOMAXPROCS(4)
		b := Run(smallProblem(t, 12), cfg)
		runtime.GOMAXPROCS(prev)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("backend=%s: GOMAXPROCS changed the result", be)
		}
	}
}

// verifyLegal recounts the result's occupancy tile by tile.
func verifyLegal(t *testing.T, p *Problem, res *Result) {
	t.Helper()
	occ := newOccupancy(p.Dev)
	placed := 0
	for ii, o := range res.Origins {
		if !o.Placed {
			continue
		}
		placed++
		b := &p.Blocks[p.Instances[ii].Block]
		if len(b.Spans) > 0 && !p.Dev.RowShiftCompatible(o.X, o.X+b.Width-1, o.Y) {
			t.Errorf("instance %d at (%d,%d): row-shift incompatible", ii, o.X, o.Y)
		}
		if !p.Dev.SignatureMatches(b.HomeX, b.Width, o.X) {
			t.Errorf("instance %d: column signature mismatch at %d", ii, o.X)
		}
		for _, s := range b.Spans {
			x := o.X + s.DX
			if occ.conflict(x, o.Y+s.Min, o.Y+s.Max) {
				t.Fatalf("instance %d overlaps in column %d", ii, x)
			}
			occ.set(x, o.Y+s.Min, o.Y+s.Max, true)
		}
	}
	if placed != res.Placed || len(res.Origins)-placed != res.Unplaced {
		t.Errorf("placed/unplaced counts %d/%d disagree with origins %d/%d",
			res.Placed, res.Unplaced, placed, len(res.Origins)-placed)
	}
}

// TestAnalyticResultLegal: the legalized analytic placement must honour
// every fabric contract with no annealing cleanup behind it.
func TestAnalyticResultLegal(t *testing.T) {
	for _, n := range []int{10, 30} {
		p := smallProblem(t, n)
		res := Run(p, Config{Seed: 8, Backend: BackendAnalytic})
		verifyLegal(t, p, res)
		if res.GDIters != 256 {
			t.Errorf("GDIters = %d, want default 256", res.GDIters)
		}
	}
}

// TestHybridNeverWorseThanSeed: the barrier-best snapshot guarantees
// annealing refinement can only improve on the analytic seed in total
// cost (penalties included).
func TestHybridNeverWorseThanSeed(t *testing.T) {
	total := func(r *Result) float64 {
		return r.FinalCost + float64(r.Unplaced)*2000
	}
	for seed := int64(0); seed < 4; seed++ {
		p := smallProblem(t, 24)
		cfg := Config{Seed: seed, Iterations: 10000, Chains: 4}
		cfg.Backend = BackendAnalytic
		seedRes := Run(p, cfg)
		cfg.Backend = BackendHybrid
		hyb := Run(p, cfg)
		verifyLegal(t, p, hyb)
		if total(hyb) > total(seedRes) {
			t.Errorf("seed %d: hybrid total %.1f worse than its analytic seed %.1f",
				seed, total(hyb), total(seedRes))
		}
		if hyb.GDIters == 0 {
			t.Error("hybrid result does not echo its gradient-descent budget")
		}
	}
}

// TestHybridOnThirdOfAnnealBudget is the scaling contract of the
// hybrid backend, at the design size where move-based search stops
// scaling (the 10× synthetic workload, 1750 instances on the xc7z045):
// the analytic seed plus 13,333 moves × 4 chains must land within 2%
// of the pure annealer's 40,000 × 4 in total cost (penalties included),
// summed over seeds 0–2. The hybrid/anneal ratio measured is 0.443.
func TestHybridOnThirdOfAnnealBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("10x synthetic stitch in -short mode")
	}
	total := func(r *Result) float64 { return r.FinalCost + float64(r.Unplaced)*2000 }
	p := Synthetic(fabric.XC7Z045(), 10, 7)
	var annealCost, hybridCost float64
	for seed := int64(0); seed < 3; seed++ {
		annealCost += total(Run(p, Config{Seed: seed, Iterations: 40000, Chains: 4}))
		hybridCost += total(Run(p, Config{Seed: seed, Iterations: 40000 / 3, Chains: 4, Backend: BackendHybrid}))
	}
	t.Logf("hybrid/anneal %.3f", hybridCost/annealCost)
	if hybridCost > 1.02*annealCost {
		t.Errorf("hybrid at 1/3 moves cost %.0f, over 102%% of the annealer's %.0f", hybridCost, annealCost)
	}
}

// TestAnalyticZeroNetBlocks: instances with no incident nets have zero
// wirelength gradient; the density force and legalization must still
// place them legally.
func TestAnalyticZeroNetBlocks(t *testing.T) {
	p := smallProblem(t, 12)
	p.Nets = nil
	res := Run(p, Config{Seed: 2, Backend: BackendAnalytic})
	verifyLegal(t, p, res)
	if res.Unplaced != 0 {
		t.Errorf("%d unplaced on an empty netlist with room to spare", res.Unplaced)
	}
	if res.FinalCost != 0 {
		t.Errorf("FinalCost = %.1f with no nets, want 0", res.FinalCost)
	}
}

// TestAnalyticWiderThanAnyRun: a block wider than any compatible column
// run has an empty origin list; snap-to-legal and the firstFit fallback
// must both decline it (leaving it unplaced) without disturbing the
// placeable instances.
func TestAnalyticWiderThanAnyRun(t *testing.T) {
	p := smallProblem(t, 8)
	w := p.Dev.NumCols() + 1 // wider than the whole fabric: no origin exists
	wide := Block{Name: "toowide", HomeX: 1, Width: w, Height: 2}
	for i := 0; i < w; i++ {
		wide.Spans = append(wide.Spans, ColSpan{DX: i, Min: 0, Max: 1})
	}
	p.Blocks = append(p.Blocks, wide)
	p.Instances = append(p.Instances, Instance{Name: "w", Block: len(p.Blocks) - 1})
	res := Run(p, Config{Seed: 4, Backend: BackendAnalytic})
	verifyLegal(t, p, res)
	if res.Unplaced != 1 {
		t.Errorf("unplaced = %d, want exactly the impossible block", res.Unplaced)
	}
	if res.Origins[len(res.Origins)-1].Placed {
		t.Error("the impossible block reports placed")
	}
}

// TestAnalyticOverflowLeavesUnplaced: a problem demanding more area
// than the whole fabric must stay legal, with the overflow reported as
// unplaced rather than overlapped.
func TestAnalyticOverflowLeavesUnplaced(t *testing.T) {
	p := smallProblem(t, 300) // ~16 tiles each vs ~7500 CLB tiles on z020
	res := Run(p, Config{Seed: 6, Backend: BackendAnalytic})
	verifyLegal(t, p, res)
	if res.Unplaced == 0 {
		t.Error("full-fabric overflow placed everything — capacity check is broken")
	}
	if res.Placed == 0 {
		t.Error("overflow run placed nothing at all")
	}
}

// TestSyntheticDeterministic: the scaled workload generator is a pure
// function of (device, scale, seed).
func TestSyntheticDeterministic(t *testing.T) {
	dev := fabric.XC7Z045()
	a := Synthetic(dev, 10, 7)
	b := Synthetic(dev, 10, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("two Synthetic calls with the same inputs differ")
	}
	if len(a.Blocks) != 74 || len(a.Instances) != 1750 {
		t.Errorf("10x workload is %d blocks / %d instances, want 74 / 1750",
			len(a.Blocks), len(a.Instances))
	}
	if c := Synthetic(dev, 10, 8); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical workloads")
	}
}

// TestSyntheticScalesWithinCapacity: at every scale the generated block
// mix must fit the paper's ~50% utilization regime so the stitcher has
// room to move.
func TestSyntheticScalesWithinCapacity(t *testing.T) {
	dev := fabric.XC7Z045()
	capTiles := 0
	for x := 0; x < dev.NumCols(); x++ {
		if dev.IsCLBColumn(x) {
			capTiles += dev.Rows
		}
	}
	for _, scale := range []int{1, 10, 100} {
		p := Synthetic(dev, scale, 7)
		if len(p.Instances) != 175*scale {
			t.Fatalf("scale %d: %d instances", scale, len(p.Instances))
		}
		area := 0
		for _, in := range p.Instances {
			area += p.Blocks[in.Block].Area()
		}
		if util := float64(area) / float64(capTiles); util > 0.65 {
			t.Errorf("scale %d: utilization %.2f exceeds the target regime", scale, util)
		}
	}
}
