package pblock

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"macroflow/internal/fabric"
	"macroflow/internal/obs"
	"macroflow/internal/rtlgen"
)

// gridCFs lists the CFs of window s in probe order.
func gridCFs(t testing.TB, s SearchConfig) []float64 {
	t.Helper()
	w, err := s.window()
	if err != nil {
		t.Fatal(err)
	}
	var cfs []float64
	for t := w.start; t <= w.last; t += w.step {
		cfs = append(cfs, t.CF())
	}
	return cfs
}

// oldRoundCF is the float snap the searches probed before they stepped
// ticks, kept as the reference the ticks must reproduce. Its argument
// is formed with explicit conversions, so no platform fuses it.
func oldRoundCF(start, step float64, i int) float64 {
	return math.Round(float64(start+float64(float64(i)*step))*50) / 50
}

// TestRoundCF: a tick's CF is, bit for bit, the float snap the searches
// used to probe, on every on-grid window: each (start, step, i) triple
// with start and step on the grid, and the window's last index under
// the old `<= Max+1e-9` loop.
func TestRoundCF(t *testing.T) {
	for in, want := range map[float64]float64{
		0.899999: 0.90,
		0.91:     0.92, // snaps to the 0.02 grid
		1.0:      1.0,
		1.37:     1.38,
	} {
		if got := TickOf(in).CF(); got != want {
			t.Errorf("TickOf(%v).CF() = %v, want %v", in, got, want)
		}
	}
	triples := 0
	for k := 0; k <= 150; k++ {
		for j := 1; j <= 10; j++ {
			for _, hi := range []float64{2.5, 3.0, 5.02} {
				s := SearchConfig{Start: float64(k) / 50, Step: float64(j) / 50, Max: hi}
				var old []float64
				for i := 0; oldRoundCF(s.Start, s.Step, i) <= s.Max+1e-9; i++ {
					old = append(old, oldRoundCF(s.Start, s.Step, i))
				}
				cfs := gridCFs(t, s)
				if len(cfs) != len(old) {
					t.Fatalf("%+v: %d ticks, the float loop's %d", s, len(cfs), len(old))
				}
				for i := range old {
					if cfs[i] != old[i] {
						t.Fatalf("%+v index %d: tick CF %v, float snap %v", s, i, cfs[i], old[i])
					}
				}
				triples += len(old)
			}
		}
	}
	t.Logf("%d (start, step, i) triples equal", triples)
}

// Property: a CF's nearest tick lands on the grid and moves it by at
// most half a step.
func TestRoundCFGridProperty(t *testing.T) {
	f := func(v uint16) bool {
		cf := float64(v) / 997.0
		r := TickOf(cf).CF()
		onGrid := TickOf(r).CF() == r
		near := r-cf <= 0.01+1e-9 && cf-r <= 0.01+1e-9
		return onGrid && near
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// climbModule's minimal CF is 1.68: infeasible at 1.5 and 1.6, feasible
// from 1.68 up.
func climbModule() rtlgen.Spec {
	return rtlgen.Spec{Name: "climb", Components: []rtlgen.Component{
		rtlgen.RandomLogic{LUTs: 60, Fanin: 4, Depth: 3, Seed: 7},
		rtlgen.SumOfSquares{Width: 8, Terms: 2},
	}}
}

// probedCFs returns the cf of every oracle.probe span rec holds, in
// probe order.
func probedCFs(rec *obs.Recorder) []float64 {
	spans := rec.Spans()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	var cfs []float64
	for _, sp := range spans {
		if sp.Name != "oracle.probe" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "cf" {
				cfs = append(cfs, a.Val.(float64))
			}
		}
	}
	return cfs
}

// TestSweepCoversGrid: from a Start off the grid the linear sweep probes
// consecutive grid points from Start's nearest tick. The float sweep
// indexed Start + i·Step and snapped each sum, so from 0.91 it probed
// 1.14 twice and never 1.16. Bisect lands on the linear CF from every
// Start.
func TestSweepCoversGrid(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	m, rep := module(t, climbModule())
	for _, start := range []float64{0.85, 0.91, 0.95, 1.01, 1.51} {
		rec := obs.New()
		s := SearchConfig{Start: start, Step: 0.02, Max: 3.0, Obs: rec}
		res, err := MinCF(dev, m, rep, s, cfg)
		if err != nil {
			t.Fatalf("start %v: %v", start, err)
		}
		cfs := probedCFs(rec)
		if len(cfs) != res.ToolRuns || cfs[len(cfs)-1] != res.CF {
			t.Fatalf("start %v: probes %v for CF %v in %d runs", start, cfs, res.CF, res.ToolRuns)
		}
		want := TickOf(start)
		for i, cf := range cfs {
			if cf != want.CF() {
				t.Errorf("start %v: probe %d at CF %v, want the grid point %v", start, i, cf, want.CF())
				break
			}
			want++
		}
		s.Obs, s.Strategy = nil, StrategyBisect
		if bis, err := MinCF(dev, m, rep, s, cfg); err != nil || bis.CF != res.CF {
			t.Errorf("start %v: bisect CF %v (%v), linear %v", start, bis.CF, err, res.CF)
		}
	}
}

// TestConstantClimbOnGrid: the constant climb steps ticks, so from 1.5
// it reports exactly 1.7 (the accumulated float climb reported
// 1.7000000000000002), and every probe is a grid point.
func TestConstantClimbOnGrid(t *testing.T) {
	dev := fabric.XC7Z020()
	m, rep := module(t, climbModule())
	rec := obs.New()
	s := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0, Obs: rec}
	res, err := Constant(1.5).Search(dev, m, rep, s, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.CF != 1.7 || res.ToolRuns != 3 || res.Impl.PBlock.CF != 1.7 {
		t.Errorf("climb from 1.5 = CF %v (PBlock %v) in %d runs, want exactly 1.7 in 3", res.CF, res.Impl.PBlock.CF, res.ToolRuns)
	}
	if got := fmt.Sprint(probedCFs(rec)); got != "[1.5 1.6 1.7]" {
		t.Errorf("climb probed %s, want [1.5 1.6 1.7]", got)
	}
}
