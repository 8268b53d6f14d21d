package pblock

import (
	"errors"
	"math"
	"testing"

	"macroflow/internal/fabric"
	"macroflow/internal/netlist"
	"macroflow/internal/place"
	"macroflow/internal/rtlgen"
)

func module(t *testing.T, spec rtlgen.Spec) (*netlist.Module, place.ShapeReport) {
	t.Helper()
	m, rep, err := FrontEnd(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, rep
}

func TestBuildCoversDemand(t *testing.T) {
	dev := fabric.XC7Z020()
	_, rep := module(t, rtlgen.Spec{
		Name: "mix",
		Components: []rtlgen.Component{
			rtlgen.RandomLogic{LUTs: 300, Fanin: 4, Depth: 3, Seed: 1},
			rtlgen.LUTMemory{Width: 4, Depth: 128},
		},
	})
	for _, cf := range []float64{0.9, 1.0, 1.5} {
		pb, err := Build(dev, rep, cf, DefaultConfig())
		if err != nil {
			t.Fatalf("cf %.2f: %v", cf, err)
		}
		rc := dev.RectResources(pb.Rect)
		if rc.Slices() < pb.TargetSlices {
			t.Errorf("cf %.2f: rect has %d slices < target %d", cf, rc.Slices(), pb.TargetSlices)
		}
		if rc.SlicesM < rep.EstSlicesM {
			t.Errorf("cf %.2f: rect has %d M slices < demand %d", cf, rc.SlicesM, rep.EstSlicesM)
		}
		if want := int(math.Ceil(float64(rep.EstSlices) * cf)); pb.TargetSlices != want {
			t.Errorf("cf %.2f: target %d, want %d", cf, pb.TargetSlices, want)
		}
	}
}

func TestBuildRespectsShapeHeight(t *testing.T) {
	dev := fabric.XC7Z020()
	_, rep := module(t, rtlgen.Spec{
		Name:       "tallcarry",
		Components: []rtlgen.Component{rtlgen.SumOfSquares{Width: 40, Terms: 1}},
	})
	pb, err := Build(dev, rep, 1.0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if pb.Rect.Height() < rep.MaxShapeHeight {
		t.Errorf("PBlock height %d below shape floor %d", pb.Rect.Height(), rep.MaxShapeHeight)
	}
}

func TestBuildBRAMDrivenPBlock(t *testing.T) {
	dev := fabric.XC7Z020()
	_, rep := module(t, rtlgen.Spec{
		Name:       "bram",
		Components: []rtlgen.Component{rtlgen.LUTMemory{Width: 32, Depth: 4096}},
	})
	if rep.EstBRAM == 0 {
		t.Fatal("expected a BRAM module")
	}
	pb, err := Build(dev, rep, 0.5, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if dev.RectResources(pb.Rect).BRAM < rep.EstBRAM {
		t.Error("PBlock must include the demanded BRAM sites")
	}
	// BRAM-driven PBlocks have many more slices than the CF-scaled target
	// (the paper's explanation for optimal CFs below 0.7).
	if rc := dev.RectResources(pb.Rect); rc.Slices() < 2*pb.TargetSlices {
		t.Logf("note: BRAM rect slices %d, target %d", rc.Slices(), pb.TargetSlices)
	}
}

func TestBuildTooBigFails(t *testing.T) {
	dev := fabric.XC7Z020()
	rep := place.ShapeReport{EstSlices: 100000}
	if _, err := Build(dev, rep, 1.0, DefaultConfig()); !errors.Is(err, ErrNoFit) {
		t.Fatalf("oversized demand must return ErrNoFit, got %v", err)
	}
}

func TestImplementFeasibleAndInfeasible(t *testing.T) {
	dev := fabric.XC7Z020()
	m, rep := module(t, rtlgen.Spec{
		Name:       "impl",
		Components: []rtlgen.Component{rtlgen.RandomLogic{LUTs: 400, Fanin: 4, Depth: 4, Seed: 3}},
	})
	cfg := DefaultConfig()
	impl, err := Implement(dev, m, rep, 2.0, cfg)
	if err != nil {
		t.Fatalf("cf 2.0 should implement: %v", err)
	}
	if impl.Placement == nil || !impl.Route.Feasible {
		t.Fatal("implementation incomplete")
	}
	if _, err := Implement(dev, m, rep, 0.1, cfg); err == nil {
		t.Error("cf 0.1 must be infeasible for a dense module")
	}
}

func TestMinCFFindsFirstFeasible(t *testing.T) {
	dev := fabric.XC7Z020()
	m, rep := module(t, rtlgen.Spec{
		Name: "min",
		Components: []rtlgen.Component{
			rtlgen.ShiftRegs{Count: 10, Length: 10, ControlSets: 5, Fanin: 4, NoSRL: true},
			rtlgen.RandomLogic{LUTs: 200, Fanin: 4, Depth: 3, Seed: 4},
		},
	})
	cfg := DefaultConfig()
	s := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}
	res, err := MinCF(dev, m, rep, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CF < s.Start || res.CF > s.Max {
		t.Fatalf("min CF %f out of range", res.CF)
	}
	// One step below must be infeasible (that is what 'minimal' means),
	// unless the minimum sits at the search start.
	if res.CF > s.Start+1e-9 {
		if _, err := Implement(dev, m, rep, TickOf(res.CF-s.Step).CF(), cfg); err == nil {
			t.Errorf("cf %.2f feasible but MinCF returned %.2f", res.CF-s.Step, res.CF)
		}
	}
	wantRuns := int(math.Round((res.CF-s.Start)/s.Step)) + 1
	if res.ToolRuns != wantRuns {
		t.Errorf("ToolRuns = %d, want %d", res.ToolRuns, wantRuns)
	}
}

func TestFromEstimatePerfectEstimateOneRun(t *testing.T) {
	dev := fabric.XC7Z020()
	m, rep := module(t, rtlgen.Spec{
		Name:       "est",
		Components: []rtlgen.Component{rtlgen.RandomLogic{LUTs: 300, Fanin: 4, Depth: 3, Seed: 5}},
	})
	cfg := DefaultConfig()
	s := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}
	min, err := MinCF(dev, m, rep, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FromEstimate(dev, m, rep, min.CF, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ToolRuns != 1 {
		t.Errorf("perfect estimate must need exactly 1 run, took %d", res.ToolRuns)
	}
	if res.CF != min.CF {
		t.Errorf("CF = %f, want %f", res.CF, min.CF)
	}
}

func TestFromEstimateUnderestimateRefines(t *testing.T) {
	dev := fabric.XC7Z020()
	m, rep := module(t, rtlgen.Spec{
		Name:       "under",
		Components: []rtlgen.Component{rtlgen.RandomLogic{LUTs: 500, Fanin: 5, Depth: 4, Seed: 6}},
	})
	cfg := DefaultConfig()
	s := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}
	min, err := MinCF(dev, m, rep, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if min.CF < 0.3 {
		t.Skip("module minimum too low to underestimate")
	}
	res, err := FromEstimate(dev, m, rep, min.CF-0.2, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Impl == nil {
		t.Fatal("refinement must return an implementation")
	}
	if res.CF < min.CF-1e-9 {
		t.Errorf("refined CF %.2f below true minimum %.2f", res.CF, min.CF)
	}
	if res.ToolRuns < 2 {
		t.Errorf("underestimate must need multiple runs, took %d", res.ToolRuns)
	}
}
