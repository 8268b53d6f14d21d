package pblock

import (
	"reflect"
	"runtime"
	"testing"

	"macroflow/internal/cnv"
	"macroflow/internal/fabric"
	"macroflow/internal/place"
)

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

func requireSameImpls(t *testing.T, what string, got, want []SearchResult, runsToo bool) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if g.CF != w.CF || g.Impl.PBlock != w.Impl.PBlock {
			t.Fatalf("%s: block %d: CF %.2f %v, want %.2f %v", what, i, g.CF, g.Impl.PBlock.Rect, w.CF, w.Impl.PBlock.Rect)
		}
		if runsToo && g.ToolRuns != w.ToolRuns {
			t.Fatalf("%s: block %d: %d tool runs, want %d", what, i, g.ToolRuns, w.ToolRuns)
		}
		gp, wp := g.Impl.Placement, w.Impl.Placement
		if !reflect.DeepEqual(gp.CellAt, wp.CellAt) || gp.UsedSlices != wp.UsedSlices ||
			gp.Spread != wp.Spread || !reflect.DeepEqual(gp.Footprint, wp.Footprint) {
			t.Fatalf("%s: block %d: placement differs", what, i)
		}
		if g.Impl.Route != w.Impl.Route {
			t.Fatalf("%s: block %d: routing probe differs", what, i)
		}
	}
}

// TestBisectSharedPlanWorkers runs the bisect search with four
// speculative workers probing through one shared place.Plan (run it
// under -race: the plan hands recycled site tables between concurrent
// probes) and requires the winning implementation of every cnvW1A1
// block to be the linear sweep's, which probes one rectangle at a time.
func TestBisectSharedPlanWorkers(t *testing.T) {
	linear := cnvSearchAll(t, cnvWindow)
	s := cnvWindow
	s.Strategy = StrategyBisect
	s.Workers = 4
	requireSameImpls(t, "bisect x4 vs linear", cnvSearchAll(t, s), linear, false)
}

// TestBisectSharedPlanGOMAXPROCSInvariant: the same four-worker search
// scheduled on one core and on four returns identical implementations
// after identical tool-run counts.
func TestBisectSharedPlanGOMAXPROCSInvariant(t *testing.T) {
	s := cnvWindow
	s.Strategy = StrategyBisect
	s.Workers = 4
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	one := cnvSearchAll(t, s)
	runtime.GOMAXPROCS(4)
	requireSameImpls(t, "GOMAXPROCS 4 vs 1", cnvSearchAll(t, s), one, true)
}
