package route

import (
	"testing"

	"macroflow/internal/fabric"
	"macroflow/internal/netlist"
	"macroflow/internal/place"
	"macroflow/internal/rtlgen"
	"macroflow/internal/synth"
)

func placed(t *testing.T, spec rtlgen.Spec, r fabric.Rect, compact bool) *place.Placement {
	t.Helper()
	dev := fabric.XC7Z020()
	m, err := synth.Elaborate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep := place.QuickPlace(m)
	pl, err := place.Place(dev, m, rep, r, place.Options{Compact: compact})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestRouteFeasibleInGenerousRect(t *testing.T) {
	pl := placed(t, rtlgen.Spec{
		Name:       "easy",
		Components: []rtlgen.Component{rtlgen.RandomLogic{LUTs: 200, Fanin: 3, Depth: 3, Seed: 1}},
	}, fabric.Rect{X0: 1, Y0: 0, X1: 30, Y1: 40}, false)
	rr := Route(pl, DefaultConfig())
	if !rr.Feasible {
		t.Fatalf("generous rect must route: %+v", rr)
	}
	if rr.AvgNetHPWL <= 0 || rr.TotalWirelength <= 0 {
		t.Errorf("wirelength stats missing: %+v", rr)
	}
}

func TestRouteDenserIsWorse(t *testing.T) {
	spec := rtlgen.Spec{
		Name:       "dense",
		Components: []rtlgen.Component{rtlgen.RandomLogic{LUTs: 800, Fanin: 5, Depth: 4, Seed: 2}},
	}
	tight := placed(t, spec, fabric.Rect{X0: 1, Y0: 0, X1: 14, Y1: 10}, true)
	loose := placed(t, spec, fabric.Rect{X0: 1, Y0: 0, X1: 30, Y1: 30}, false)
	// Under AssumeRoutable a result's figures are the first pass's,
	// whichever verdict the default limits would reach.
	cfg := DefaultConfig()
	cfg.AssumeRoutable = true
	rt, rl := Route(tight, cfg), Route(loose, cfg)
	if rt.AvgUtil <= rl.AvgUtil {
		t.Errorf("tight placement must have higher first-pass average utilization: %.3f vs %.3f",
			rt.AvgUtil, rl.AvgUtil)
	}
}

func TestRouteEmptyPlacementInfeasible(t *testing.T) {
	m := netlist.NewModule("empty")
	pl := &place.Placement{Module: m, Rect: fabric.Rect{X0: 2, Y0: 2, X1: 1, Y1: 1}}
	if rr := Route(pl, DefaultConfig()); rr.Feasible {
		t.Error("degenerate rect must be infeasible")
	}
}

func TestRouteIgnoresIntraTileNets(t *testing.T) {
	m := netlist.NewModule("intra")
	a := m.AddCell(netlist.CellLUT)
	b := m.AddCell(netlist.CellLUT)
	m.AddNet(a, b)
	pl := &place.Placement{
		Module: m,
		Rect:   fabric.Rect{X0: 0, Y0: 0, X1: 4, Y1: 4},
		CellAt: []place.Coord{{X: 2, Y: 2}, {X: 2, Y: 2}},
	}
	rr := Route(pl, DefaultConfig())
	if rr.TotalWirelength != 0 {
		t.Errorf("intra-tile net must add no demand, got %f", rr.TotalWirelength)
	}
	if !rr.Feasible {
		t.Error("placement with no channel demand must be feasible")
	}
}

func TestRouteCountsInterTileNet(t *testing.T) {
	m := netlist.NewModule("pair")
	a := m.AddCell(netlist.CellLUT)
	b := m.AddCell(netlist.CellLUT)
	m.AddNet(a, b)
	pl := &place.Placement{
		Module: m,
		Rect:   fabric.Rect{X0: 0, Y0: 0, X1: 9, Y1: 9},
		CellAt: []place.Coord{{X: 0, Y: 0}, {X: 3, Y: 4}},
	}
	rr := Route(pl, DefaultConfig())
	if rr.TotalWirelength != 7 { // HPWL = 3 + 4
		t.Errorf("TotalWirelength = %f, want 7", rr.TotalWirelength)
	}
	if rr.AvgNetHPWL != 7 {
		t.Errorf("AvgNetHPWL = %f, want 7", rr.AvgNetHPWL)
	}
}

func TestFanoutQMonotonic(t *testing.T) {
	prev := 0.0
	for _, pins := range []int{2, 4, 6, 10, 20, 40, 100, 1000} {
		q := fanoutQ(pins)
		if q < prev {
			t.Fatalf("fanoutQ(%d) = %f < previous %f", pins, q, prev)
		}
		prev = q
	}
	if fanoutQ(100000) > 2.2+1e-9 {
		t.Errorf("fanoutQ must saturate at 2.2, got %f", fanoutQ(100000))
	}
}

func TestInflateStaysInBounds(t *testing.T) {
	b := bbox{x0: 0, y0: 0, x1: 9, y1: 9, q: 1}
	g := inflate(b, 2.0, 10, 10)
	if g.x0 < 0 || g.y0 < 0 || g.x1 > 9 || g.y1 > 9 {
		t.Errorf("inflated box out of bounds: %+v", g)
	}
	small := bbox{x0: 4, y0: 4, x1: 5, y1: 5, q: 1}
	g2 := inflate(small, 1.5, 10, 10)
	if g2.x1-g2.x0 <= small.x1-small.x0 {
		t.Error("inflation must grow the box when room exists")
	}
}

func TestDetourPassRecoversHotspot(t *testing.T) {
	// A star net cluster in one corner of a large rect: the first pass
	// overflows locally, the detour pass spreads it.
	m := netlist.NewModule("hotspot")
	hub := m.AddCell(netlist.CellLUT)
	coords := []place.Coord{{X: 0, Y: 0}}
	for i := 0; i < 40; i++ {
		c := m.AddCell(netlist.CellLUT)
		m.AddNet(hub, c)
		coords = append(coords, place.Coord{X: int16(i % 2), Y: int16(i / 2 % 2)})
	}
	pl := &place.Placement{
		Module: m,
		Rect:   fabric.Rect{X0: 0, Y0: 0, X1: 39, Y1: 39},
		CellAt: coords,
	}
	cfg := DefaultConfig()
	cfg.CapacityPerTile = 30
	rr := Route(pl, cfg)
	// Whether or not it ends feasible, the probe must not panic and must
	// report a bounded overflow fraction.
	if rr.OverflowFrac < 0 || rr.OverflowFrac > 1 {
		t.Errorf("overflow fraction out of range: %f", rr.OverflowFrac)
	}
}
