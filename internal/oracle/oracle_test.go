package oracle

import (
	"math/rand"
	"strings"
	"testing"

	"macroflow/internal/fabric"
	"macroflow/internal/netlist"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/rtlgen"
	"macroflow/internal/stitch"
	"macroflow/internal/synth"
)

// implementSpec elaborates and implements one generated spec with the
// minimal-CF sweep — the shared setup for oracle tests.
func implementSpec(t *testing.T, dev *fabric.Device, spec rtlgen.Spec, s pblock.SearchConfig) (*netlist.Module, place.ShapeReport, pblock.SearchResult) {
	t.Helper()
	m, err := synth.Elaborate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synth.Optimize(m); err != nil {
		t.Fatal(err)
	}
	shape := place.QuickPlace(m)
	sr, err := pblock.MinCF(dev, m, shape, s, pblock.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m, shape, sr
}

func testSearch() pblock.SearchConfig {
	return pblock.SearchConfig{Start: 0.7, Step: 0.02, Max: 3.0}
}

func logicSpec(name string, luts int) rtlgen.Spec {
	return rtlgen.Spec{Name: name, Components: []rtlgen.Component{
		rtlgen.RandomLogic{LUTs: luts, Fanin: 4, Depth: 3, Seed: 7},
		rtlgen.SumOfSquares{Width: 8, Terms: 2},
	}}
}

// buildStitched implements nInstances copies of a block and places them
// with a short annealing run, returning the problem and origins.
func buildStitched(t *testing.T, dev *fabric.Device, n int) (*stitch.Problem, []stitch.Origin, *stitch.Result) {
	t.Helper()
	_, _, sr := implementSpec(t, dev, logicSpec("stitched", 200), testSearch())
	prob := &stitch.Problem{Dev: dev}
	prob.Blocks = append(prob.Blocks, stitch.NewBlock("b", sr.Impl.Placement))
	for i := 0; i < n; i++ {
		prob.Instances = append(prob.Instances, stitch.Instance{Name: "i", Block: 0})
		if i > 0 {
			prob.Nets = append(prob.Nets, stitch.Net{From: i - 1, To: i, Weight: 1})
		}
	}
	res := stitch.Run(prob, stitch.Config{Seed: 3, Iterations: 3000})
	return prob, res.Origins, res
}

func TestCheckImplementationCleanAndViolations(t *testing.T) {
	dev := fabric.XC7Z020()
	_, _, sr := implementSpec(t, dev, logicSpec("impl", 150), testSearch())

	var clean Report
	CheckImplementation(dev, sr.Impl, &clean)
	if !clean.Ok() {
		t.Fatalf("clean implementation reported violations:\n%s", clean.String())
	}
	if clean.Checks != 1 {
		t.Errorf("Checks = %d, want 1", clean.Checks)
	}

	// A cell pushed outside the PBlock must be caught.
	broken := *sr.Impl
	pl := *sr.Impl.Placement
	pl.CellAt = append([]place.Coord(nil), sr.Impl.Placement.CellAt...)
	pl.CellAt[0] = place.Coord{X: int16(dev.NumCols() - 1), Y: int16(dev.Rows - 1)}
	broken.Placement = &pl
	var vr Report
	CheckImplementation(dev, &broken, &vr)
	if vr.ByChecker(CheckerImplementation) == 0 {
		t.Error("out-of-PBlock cell not detected")
	}

	// Stacking every cell on one tile must blow the capacity checks.
	pl2 := *sr.Impl.Placement
	pl2.CellAt = make([]place.Coord, len(sr.Impl.Placement.CellAt))
	for i := range pl2.CellAt {
		pl2.CellAt[i] = place.Coord{X: int16(pl2.Rect.X0), Y: int16(pl2.Rect.Y0)}
	}
	broken2 := *sr.Impl
	broken2.Placement = &pl2
	vr = Report{}
	CheckImplementation(dev, &broken2, &vr)
	if vr.ByChecker(CheckerImplementation) == 0 {
		t.Error("tile overcommit not detected")
	}
}

func TestCheckPlacementCleanRun(t *testing.T) {
	dev := fabric.XC7Z020()
	prob, origins, _ := buildStitched(t, dev, 6)
	var vr Report
	CheckPlacement(prob, origins, &vr)
	if !vr.Ok() {
		t.Fatalf("clean stitched placement reported violations:\n%s", vr.String())
	}
}

// TestChaosOverlapDetected is the dedicated "overlapping placement"
// fault-class test: the chaos injector forces a block overlap and the
// placement checker must fire.
func TestChaosOverlapDetected(t *testing.T) {
	dev := fabric.XC7Z020()
	prob, origins, _ := buildStitched(t, dev, 6)
	ch := NewChaos(11)
	ii, ok := ch.OverlapPlacement(prob, origins)
	if !ok {
		t.Fatal("chaos could not construct an overlap")
	}
	var vr Report
	CheckPlacement(prob, origins, &vr)
	if vr.ByChecker(CheckerPlacement) == 0 {
		t.Fatalf("overlap of instance %d went undetected:\n%s", ii, vr.String())
	}
	found := false
	for _, v := range vr.Violations {
		if strings.Contains(v.Detail, "already occupied") {
			found = true
		}
	}
	if !found {
		t.Errorf("no tile-ownership violation recorded:\n%s", vr.String())
	}
}

// TestChaosDropDetected: a dropped placement is caught by the cost
// checker's placed/unplaced recount.
func TestChaosDropDetected(t *testing.T) {
	dev := fabric.XC7Z020()
	prob, origins, res := buildStitched(t, dev, 6)
	var clean Report
	CheckCost(prob, origins, res.FinalCost, res.Placed, res.Unplaced, &clean)
	if !clean.Ok() {
		t.Fatalf("clean run reported cost violations:\n%s", clean.String())
	}
	ch := NewChaos(5)
	if _, ok := ch.DropPlacement(origins); !ok {
		t.Fatal("chaos could not drop a placement")
	}
	var vr Report
	CheckCost(prob, origins, res.FinalCost, res.Placed, res.Unplaced, &vr)
	if vr.ByChecker(CheckerCost) == 0 {
		t.Fatalf("dropped placement went undetected:\n%s", vr.String())
	}
}

// TestChaosInfeasibleCFDetected is the dedicated "infeasible CF"
// fault-class test: a minimal CF perturbed below the feasibility
// boundary must be rejected by the linear re-probe.
func TestChaosInfeasibleCFDetected(t *testing.T) {
	dev := fabric.XC7Z020()
	s := testSearch()
	m, shape, sr := implementSpec(t, dev, logicSpec("mincf", 260), s)

	var clean Report
	CheckMinCF(dev, m, shape, sr.CF, -1, s, pblock.DefaultConfig(), &clean)
	if !clean.Ok() {
		t.Fatalf("true minimal CF %.2f reported violations:\n%s", sr.CF, clean.String())
	}

	ch := NewChaos(1)
	bad := ch.PerturbCF(sr.CF, s.Step)
	if bad >= sr.CF {
		t.Fatalf("PerturbCF did not lower the CF: %.2f -> %.2f", sr.CF, bad)
	}
	var vr Report
	CheckMinCF(dev, m, shape, bad, 0, s, pblock.DefaultConfig(), &vr)
	if vr.ByChecker(CheckerMinCF) == 0 {
		t.Fatalf("perturbed CF %.2f accepted as feasible:\n%s", bad, vr.String())
	}
}

// TestCheckMinCFRejectsInflatedClaim: a claim above the true minimum is
// caught by the linear sweep below it.
func TestCheckMinCFRejectsInflatedClaim(t *testing.T) {
	dev := fabric.XC7Z020()
	s := testSearch()
	m, shape, sr := implementSpec(t, dev, logicSpec("inflated", 260), s)
	var vr Report
	CheckMinCF(dev, m, shape, sr.CF+0.3, -1, s, pblock.DefaultConfig(), &vr)
	if vr.ByChecker(CheckerMinCF) == 0 {
		t.Error("inflated minimal-CF claim went undetected")
	}
}

// TestCheckMinCFOffGridStart: from a Start off the grid the re-probe
// walks the grid ticks from Start's nearest one. The float walk snapped
// Start + i·Step, so from 0.91 it re-probed 1.14 twice and never 1.16,
// and a claim of 1.18 on a block whose minimum is 1.16 passed. A
// minimality claim off the grid is a violation of its own.
func TestCheckMinCFOffGridStart(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := pblock.DefaultConfig()
	s := pblock.SearchConfig{Start: 0.91, Step: 0.02, Max: 3.0}
	spec := rtlgen.GenerateMix(rand.New(rand.NewSource(7)), 30)[12]
	m, shape, sr := implementSpec(t, dev, spec, s)
	if sr.CF != 1.16 {
		t.Fatalf("%s: minimal CF %v from 0.91, want 1.16", spec.Name, sr.CF)
	}
	var clean Report
	CheckMinCF(dev, m, shape, sr.CF, -1, s, cfg, &clean)
	if !clean.Ok() {
		t.Fatalf("true minimal CF 1.16 reported violations:\n%s", clean.String())
	}
	for _, below := range []int{1, -1} {
		var vr Report
		CheckMinCF(dev, m, shape, 1.18, below, s, cfg, &vr)
		if vr.ByChecker(CheckerMinCF) != 1 || !strings.Contains(vr.Violations[0].Detail, "CF 1.16 below") {
			t.Errorf("claim 1.18, below %d: want the re-probe of 1.16 to fail it, got:\n%s", below, vr.String())
		}
	}
	var off Report
	CheckMinCF(dev, m, shape, 1.19, -1, s, cfg, &off)
	if off.ByChecker(CheckerMinCF) != 1 || !strings.Contains(off.Violations[0].Detail, "not a grid point") {
		t.Errorf("claim 1.19: want an off-grid violation, got:\n%s", off.String())
	}
}

func TestCheckEquivalence(t *testing.T) {
	dev := fabric.XC7Z020()
	s := testSearch()
	_, _, sr := implementSpec(t, dev, logicSpec("equiv", 150), s)
	_, _, sr2 := implementSpec(t, dev, logicSpec("equiv", 150), s)

	var clean Report
	CheckEquivalence("equiv", sr, sr2, nil, &clean)
	if !clean.Ok() {
		t.Fatalf("identical runs reported as divergent:\n%s", clean.String())
	}

	// A CF lie must be caught even when the placement is untouched.
	lied := sr
	lied.CF += 0.5
	var vr Report
	CheckEquivalence("equiv", lied, sr2, nil, &vr)
	if vr.ByChecker(CheckerCache) == 0 {
		t.Error("CF divergence went undetected")
	}

	// A stale record's CF that differs in its last bits reads as two
	// different numbers, not as "1.50 vs 1.50".
	stale, fresh := sr, sr2
	stale.CF, fresh.CF = 1.5000000000000004, 1.5
	vr = Report{}
	CheckEquivalence("equiv", stale, fresh, nil, &vr)
	if want := "cached CF 1.5000000000000004 vs fresh CF 1.5"; !strings.Contains(vr.String(), want) {
		t.Errorf("violation text %q does not show %q", vr.String(), want)
	}

	// A fresh-run failure against a cache-served success is a violation.
	vr = Report{}
	CheckEquivalence("equiv", sr, pblock.SearchResult{}, context("fresh failed"), &vr)
	if vr.ByChecker(CheckerCache) == 0 {
		t.Error("fresh-run failure went undetected")
	}
}

// context builds a plain error for the equivalence test.
func context(msg string) error { return &contextErr{msg} }

type contextErr struct{ msg string }

func (e *contextErr) Error() string { return e.msg }

func TestReportPlumbing(t *testing.T) {
	var r Report
	if !r.Ok() || r.Err() != nil {
		t.Error("zero report not clean")
	}
	r.Violate(CheckerCost, "x", "off by %d", 4)
	if r.Ok() || r.Err() == nil {
		t.Error("violated report still clean")
	}
	if got := r.ByChecker(CheckerCost); got != 1 {
		t.Errorf("ByChecker = %d, want 1", got)
	}
	if !strings.Contains(r.String(), "off by 4") {
		t.Errorf("String() lost detail: %q", r.String())
	}
	var sum Report
	sum.Merge(&r)
	sum.Merge(nil)
	if len(sum.Violations) != 1 {
		t.Errorf("Merge lost violations: %d", len(sum.Violations))
	}
}

func TestRecomputeCostMatchesStitcher(t *testing.T) {
	dev := fabric.XC7Z020()
	prob, origins, res := buildStitched(t, dev, 8)
	got := RecomputeCost(prob, origins)
	if diff := got - res.FinalCost; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("reference cost %v != stitcher FinalCost %v", got, res.FinalCost)
	}
}
