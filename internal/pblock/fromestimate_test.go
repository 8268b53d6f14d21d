package pblock

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"macroflow/internal/fabric"
	"macroflow/internal/rtlgen"
)

// TestFromEstimateTable drives the §VIII refinement through its paths:
// an exact estimate, an overestimate (accepted as-is, one run), an
// underestimate that climbs coarse steps and fine-scans the last
// interval, and a window too small for any feasible CF.
func TestFromEstimateTable(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	s := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}
	m, rep := module(t, rtlgen.Spec{
		Name:       "table",
		Components: []rtlgen.Component{rtlgen.RandomLogic{LUTs: 500, Fanin: 5, Depth: 4, Seed: 6}},
	})
	min, err := MinCF(dev, m, rep, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if min.CF < s.Start+0.25 {
		t.Fatalf("fixture minimum %.2f too close to the window start for the underestimate cases", min.CF)
	}

	cases := []struct {
		name     string
		est      float64
		wantCF   float64 // 0 = only require >= min.CF
		wantRuns int     // 0 = only require >= 1
	}{
		{name: "exact estimate", est: min.CF, wantCF: min.CF, wantRuns: 1},
		{name: "overestimate accepted as-is", est: TickOf(min.CF + 0.2).CF(), wantCF: TickOf(min.CF + 0.2).CF(), wantRuns: 1},
		{name: "slight underestimate", est: TickOf(min.CF - 0.04).CF()},
		{name: "deep underestimate climbs", est: TickOf(min.CF - 0.24).CF()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := FromEstimate(dev, m, rep, tc.est, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Impl == nil || !res.Impl.Route.Feasible {
				t.Fatal("refinement must return a feasible implementation")
			}
			if res.CF < min.CF-1e-9 {
				t.Errorf("CF %.2f below the true minimum %.2f", res.CF, min.CF)
			}
			if tc.wantCF != 0 && res.CF != tc.wantCF {
				t.Errorf("CF = %.2f, want %.2f", res.CF, tc.wantCF)
			}
			if tc.wantRuns != 0 && res.ToolRuns != tc.wantRuns {
				t.Errorf("ToolRuns = %d, want %d", res.ToolRuns, tc.wantRuns)
			}
			if tc.wantRuns == 0 && res.ToolRuns < 2 {
				t.Errorf("underestimate must take several runs, took %d", res.ToolRuns)
			}
		})
	}
}

// TestFromEstimateExceedsWindow exercises the error path: when the climb
// from the estimate leaves the search window without ever becoming
// feasible, the refinement reports it rather than looping.
func TestFromEstimateExceedsWindow(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	m, rep := module(t, rtlgen.Spec{
		Name:       "dense",
		Components: []rtlgen.Component{rtlgen.RandomLogic{LUTs: 900, Fanin: 6, Depth: 4, Seed: 3}},
	})
	s := SearchConfig{Start: 0.10, Step: 0.02, Max: 0.30}
	res, err := FromEstimate(dev, m, rep, 0.10, s, cfg)
	if err == nil {
		t.Fatal("climb beyond Max must fail")
	}
	if !strings.Contains(err.Error(), "refinement exceeded CF") {
		t.Fatalf("err = %v, want the refinement-exceeded error", err)
	}
	if res.ToolRuns < 2 {
		t.Fatalf("the failed climb still costs runs, got %d", res.ToolRuns)
	}
}

// TestFromEstimateMinAtWindowStart covers the boundary where the true
// minimum sits exactly at s.Start: an estimate at the start returns it
// in one run, and an estimate below the grid clamps up to the grid.
func TestFromEstimateMinAtWindowStart(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	m, rep := module(t, rtlgen.Spec{
		Name:       "easy",
		Components: []rtlgen.Component{rtlgen.RandomLogic{LUTs: 60, Fanin: 4, Depth: 2, Seed: 8}},
	})
	wide := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}
	min, err := MinCF(dev, m, rep, wide, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Anchor the window start at the measured minimum, so the case under
	// test — the minimum sitting exactly at s.Start — holds by
	// construction.
	s := SearchConfig{Start: min.CF, Step: 0.02, Max: 3.0}
	res, err := FromEstimate(dev, m, rep, s.Start, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CF != s.Start || res.ToolRuns != 1 {
		t.Errorf("start-estimate: CF %.2f in %d runs, want %.2f in 1", res.CF, res.ToolRuns, s.Start)
	}
	// A positive estimate below the first tick clamps to one step and
	// climbs from there; it must still land on a feasible CF.
	res, err = FromEstimate(dev, m, rep, 0.005, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Impl == nil || !res.Impl.Route.Feasible {
		t.Fatal("clamped estimate must still refine to a feasible CF")
	}
}

// TestNaNEstimateRefused: an estimate that is not a finite number > 0
// is refused before any tool run, by Policy.Validate and by both ways
// into the §VIII search: a NaN as ErrEstimateNaN, ±Inf, 0 and -1 as
// ErrEstimate. From a NaN the climb never passed the window's end, +Inf
// failed the window after one run, and -Inf, 0 and -1 clamped to one
// step and climbed; each search must return within its deadline.
func TestNaNEstimateRefused(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	s := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}
	m, rep := module(t, rtlgen.Spec{
		Name:       "nan",
		Components: []rtlgen.Component{rtlgen.RandomLogic{LUTs: 60, Fanin: 4, Depth: 2, Seed: 8}},
	})
	for _, est := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		want := ErrEstimate
		if math.IsNaN(est) {
			want = ErrEstimateNaN
		}
		if err := Estimate(est).Validate(); !errors.Is(err, want) || errors.Is(err, ErrEstimateNaN) != math.IsNaN(est) {
			t.Errorf("Estimate(%g).Validate() = %v, want %v", est, err, want)
		}
		for name, search := range map[string]func() (SearchResult, error){
			"FromEstimate":  func() (SearchResult, error) { return FromEstimate(dev, m, rep, est, s, cfg) },
			"Policy.Search": func() (SearchResult, error) { return Estimate(est).Search(dev, m, rep, s, cfg) },
		} {
			done := make(chan struct{})
			go func() {
				defer close(done)
				if res, err := search(); !errors.Is(err, want) || res.ToolRuns != 0 {
					t.Errorf("%s(%g) = %+v, %v; want %v and no tool run", name, est, res, err, want)
				}
			}()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Fatalf("%s(%g): no return within 20 s", name, est)
			}
		}
	}
}

// TestClimbsStopAtNoFit: a block the device cannot hold at any CF past
// some tick makes the constant climb and the estimator climb return
// ErrNoFit at their first such probe, as the sweep does, however far
// the window's Max lies beyond the device.
func TestClimbsStopAtNoFit(t *testing.T) {
	dev := fabric.XC7Z045()
	cfg := DefaultConfig()
	m, rep := module(t, rtlgen.Spec{
		Name:       "oversized",
		Components: []rtlgen.Component{rtlgen.LUTMemory{Width: 64, Depth: 1 << 14, ForceDistributed: true}},
	})
	s := SearchConfig{Start: 0.9, Step: 0.02, Max: 1e6}
	for _, pol := range []Policy{Constant(1.0), Estimate(1.0)} {
		done := make(chan error, 1)
		var res SearchResult
		go func() {
			var err error
			res, err = pol.Search(dev, m, rep, s, cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrNoFit) {
				t.Errorf("%s: err = %v, want ErrNoFit", pol.Kind(), err)
			}
			t.Logf("%s: ErrNoFit after %d tool runs", pol.Kind(), res.ToolRuns)
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: no answer within 20 s: the climb does not stop at the device", pol.Kind())
		}
	}
}
