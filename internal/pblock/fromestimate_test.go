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
		{name: "overestimate accepted as-is", est: roundCF(min.CF + 0.2), wantCF: roundCF(min.CF + 0.2), wantRuns: 1},
		{name: "slight underestimate", est: roundCF(min.CF - 0.04)},
		{name: "deep underestimate climbs", est: roundCF(min.CF - 0.24)},
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
	// An estimate below the grid floor clamps to one step and climbs
	// from there; it must still land on a feasible CF.
	res, err = FromEstimate(dev, m, rep, 0.0, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Impl == nil || !res.Impl.Route.Feasible {
		t.Fatal("clamped estimate must still refine to a feasible CF")
	}
}

// TestNaNEstimateRefused: a NaN estimate is refused with ErrEstimateNaN
// before any tool run, by Policy.Validate and by both ways into the
// §VIII search; the climb from roundCF(NaN) never passed the window's
// end. Infinite estimates keep their behaviour: they validate, +Inf
// fails the window after one run and -Inf clamps to the grid.
func TestNaNEstimateRefused(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	s := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}
	m, rep := module(t, rtlgen.Spec{
		Name:       "nan",
		Components: []rtlgen.Component{rtlgen.RandomLogic{LUTs: 60, Fanin: 4, Depth: 2, Seed: 8}},
	})
	if err := Estimate(math.NaN()).Validate(); !errors.Is(err, ErrEstimateNaN) {
		t.Errorf("Estimate(NaN).Validate() = %v, want ErrEstimateNaN", err)
	}
	for name, search := range map[string]func() (SearchResult, error){
		"FromEstimate":  func() (SearchResult, error) { return FromEstimate(dev, m, rep, math.NaN(), s, cfg) },
		"Policy.Search": func() (SearchResult, error) { return Estimate(math.NaN()).Search(dev, m, rep, s, cfg) },
	} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if res, err := search(); !errors.Is(err, ErrEstimateNaN) || res.ToolRuns != 0 {
				t.Errorf("%s(NaN) = %+v, %v; want ErrEstimateNaN and no tool run", name, res, err)
			}
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("%s(NaN): no return within 20 s", name)
		}
	}
	for _, est := range []float64{math.Inf(1), math.Inf(-1)} {
		if err := Estimate(est).Validate(); err != nil {
			t.Errorf("Estimate(%g).Validate() = %v", est, err)
		}
	}
	if res, err := FromEstimate(dev, m, rep, math.Inf(1), s, cfg); err == nil || res.ToolRuns != 1 {
		t.Errorf("FromEstimate(+Inf) = %+v, %v; want the window error after one run", res, err)
	}
	if res, err := FromEstimate(dev, m, rep, math.Inf(-1), s, cfg); err != nil || res.Impl == nil {
		t.Errorf("FromEstimate(-Inf) = %+v, %v; want the clamped climb's feasible CF", res, err)
	}
}
