package route_test

import (
	"math"
	"testing"

	"macroflow/internal/cnv"
	"macroflow/internal/fabric"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/route"
)

// sameBits compares two probe results field for field, floats by bit
// pattern.
func sameBits(a, b route.Result) bool {
	bits := func(r route.Result) [5]uint64 {
		return [5]uint64{math.Float64bits(r.PeakUtil), math.Float64bits(r.AvgUtil), math.Float64bits(r.OverflowFrac),
			math.Float64bits(r.AvgNetHPWL), math.Float64bits(r.TotalWirelength)}
	}
	return a.Feasible == b.Feasible && bits(a) == bits(b)
}

// TestRouteScratchMatchesOneShot: one Scratch serves every place-legal
// rectangle of every cnvW1A1 block's sweep (and two grid steps past its
// end, so routable placements are probed too), ascending and then
// descending — each probe inherits tables left by another module, by a
// larger rectangle, by a probe that took the detour pass or by one that
// returned before it — and answers bit for bit like a fresh route.Route.
func TestRouteScratchMatchesOneShot(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := pblock.DefaultConfig()
	d := cnv.CNVW1A1()
	var pls []*place.Placement
	var want []route.Result
	for ti := range d.Types {
		m, err := d.Module(ti)
		if err != nil {
			t.Fatal(err)
		}
		rep := place.QuickPlace(m)
		plan := place.NewPlan(m, rep)
		var last fabric.Rect
		for i, end := 0, -1; end < 0 || i <= end; i++ {
			pb, err := pblock.Build(dev, rep, math.Round((0.5+float64(i)*0.02)*50)/50, cfg)
			if err != nil {
				break
			}
			if pb.Rect == last {
				continue
			}
			last = pb.Rect
			pl, err := plan.Place(dev, pb.Rect, cfg.Place)
			if err != nil {
				continue
			}
			rr := route.Route(pl, cfg.Route)
			pls, want = append(pls, pl), append(want, rr)
			if rr.Feasible && end < 0 {
				end = i + 2 // the sweep ends here; look two grid steps further
			}
		}
	}
	var s route.Scratch
	detours, direct := 0, 0
	check := func(i int) {
		if got := s.Route(pls[i], cfg.Route); !sameBits(got, want[i]) {
			t.Fatalf("%s %v: reused scratch %+v, one-shot %+v", pls[i].Module.Name, pls[i].Rect, got, want[i])
		}
		if want[i].Feasible {
			direct++ // returned after either pass
		} else {
			detours++ // only the detour pass reports infeasible
		}
	}
	for i := range pls {
		check(i)
	}
	for i := len(pls) - 1; i >= 0; i-- {
		check(i)
	}
	if detours == 0 || direct == 0 {
		t.Fatalf("%d probes through the detour pass, %d feasible: one side went untested", detours, direct)
	}
	t.Logf("%d placements, %d scratch probes through the detour pass, %d feasible", len(pls), detours, direct)
}
