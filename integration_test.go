package macroflow

import (
	"testing"

	"macroflow/internal/fabric"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/route"
)

// TestFlowEndToEndInvariants drives one module through every stage of
// the public flow and cross-checks the pieces against each other — the
// integration safety net for the whole pipeline.
func TestFlowEndToEndInvariants(t *testing.T) {
	f, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	f.SetSearch(0.5, 0.02, 3.0)
	spec := NewSpec("e2e").
		ShiftRegs(10, 20, 4, 4).
		Logic(500, 4, 4).
		SumOfSquares(10, 3).
		Memory(8, 128)

	// Stage 1: synthesis features are consistent with the stats the
	// result reports.
	feats, err := f.Features(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.MinCF(spec)
	if err != nil {
		t.Fatal(err)
	}
	if int(feats["CtrlSets"]) != res.ControlSets {
		t.Errorf("feature CtrlSets %v != result %d", feats["CtrlSets"], res.ControlSets)
	}
	if int(feats["MaxFanout"]) != res.MaxFanout {
		t.Errorf("feature MaxFanout %v != result %d", feats["MaxFanout"], res.MaxFanout)
	}

	// Stage 2: the minimal CF is actually minimal — one step below fails.
	if res.CF > 0.5 {
		if _, err := f.Implement(spec, res.CF-0.02); err == nil {
			t.Errorf("CF %.2f feasible though MinCF returned %.2f", res.CF-0.02, res.CF)
		}
	}

	// Stage 3: the placement behind the result passes the independent
	// legality audit and the precise maze router agrees it routes.
	m, rep, err := pblock.FrontEnd(spec.inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := f.implementModule(m, rep, MinSweepCF(), f.search)
	if err != nil {
		t.Fatal(err)
	}
	if err := place.Verify(f.dev, sr.Impl.Placement); err != nil {
		t.Errorf("placement audit failed: %v", err)
	}
	// The precise maze router must agree the module routes once the
	// PBlock has some slack (at the exact minimum the two models may
	// disagree on borderline cases — see the 'maze' experiment).
	loose, err := f.implementModule(m, rep, ConstantCF(sr.CF+0.4), f.search)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := route.DefaultMazeConfig()
	mcfg.Rounds = 10 // allow full negotiation for the strict check
	mz := route.RouteMaze(loose.Impl.Placement, mcfg)
	if !mz.Feasible {
		t.Errorf("maze router rejects a slack placement: %+v", mz)
	}

	// Stage 4: the used slice count never exceeds the PBlock capacity.
	var pbRect fabric.Rect = sr.Impl.PBlock.Rect
	capSlices := f.dev.RectResources(pbRect).Slices()
	if res.UsedSlices > capSlices {
		t.Errorf("used %d slices in a %d-slice PBlock", res.UsedSlices, capSlices)
	}
}

// TestDeterministicEndToEnd re-runs the same public calls and demands
// bit-identical outcomes.
func TestDeterministicEndToEnd(t *testing.T) {
	run := func() ModuleResult {
		f, _ := NewFlow("xc7z045")
		f.SetSearch(0.9, 0.02, 3.0)
		res, err := f.MinCF(NewSpec("det").Logic(300, 4, 3).SumOfSquares(8, 2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic flow: %+v vs %+v", a, b)
	}
}
