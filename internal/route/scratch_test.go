package route_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"macroflow/internal/cnv"
	"macroflow/internal/fabric"
	"macroflow/internal/netlist"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/route"
	"macroflow/internal/rtlgen"
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

// TestDetourBoundMatchesReference holds the detour bound against the
// two-pass probe it shortcuts (route.RefRoute) on every place-legal
// rectangle of the cnvW1A1 sweep (TestRouteScratchMatchesOneShot's
// corpus) and of a 200-module dataset mix swept from CF 0.5 on
// xc7z020: the same verdict on every probe, the same Result bit for bit
// when feasible, and wherever the bound decides, its load is no more
// than the detour pass's Σu/(w·h) and that pass's AvgUtil is above 1.
// An unsound bound changes a verdict only where the detour pass would
// have rescued the probe, which is rare; the last two checks catch it
// wherever it decides.
func TestDetourBoundMatchesReference(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := pblock.DefaultConfig()
	var s route.Scratch
	probes, detours, fired := 0, 0, 0
	// check probes pl both ways and reports the reference's verdict.
	check := func(pl *place.Placement) bool {
		want, sumU := route.RefRoute(pl, cfg.Route)
		got, load := s.RouteBound(pl, cfg.Route)
		probes++
		what := fmt.Sprintf("%s %v", pl.Module.Name, pl.Rect)
		switch {
		case got.Feasible != want.Feasible:
			t.Fatalf("%s: feasible %v, reference %v", what, got.Feasible, want.Feasible)
		case want.Feasible:
			if !sameBits(got, want) || got.DetourBounded {
				t.Fatalf("%s: %+v, reference %+v", what, got, want)
			}
			return true
		}
		detours++ // an infeasible reference result is its detour pass's
		if !got.DetourBounded {
			if load != 0 || !sameBits(got, want) {
				t.Fatalf("%s: undecided by the bound (load %g): %+v, reference %+v", what, load, got, want)
			}
			return false
		}
		fired++
		if load > sumU*(1+1e-12) {
			t.Fatalf("%s: bound %.15g above the detour pass's Σu/(w·h) %.15g", what, load, sumU)
		}
		if !(want.AvgUtil > 1) {
			t.Fatalf("%s: bound %.15g decided, but the detour pass's AvgUtil is %.15g", what, load, want.AvgUtil)
		}
		return false
	}
	// sweep checks every place-legal rectangle of m's sweep from CF 0.5,
	// through two grid steps past the first routable one.
	sweep := func(m *netlist.Module, rep place.ShapeReport) {
		plan := place.NewPlan(m, rep)
		var last fabric.Rect
		for i, end := 0, -1; end < 0 || i <= end; i++ {
			cf := math.Round((0.5+float64(i)*0.02)*50) / 50
			if cf > 3 {
				break
			}
			pb, err := pblock.Build(dev, rep, cf, cfg)
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
			if check(pl) && end < 0 {
				end = i + 2
			}
		}
	}

	d := cnv.CNVW1A1()
	for ti := range d.Types {
		m, err := d.Module(ti)
		if err != nil {
			t.Fatal(err)
		}
		sweep(m, place.QuickPlace(m))
	}
	cnvProbes, cnvDetours, cnvFired := probes, detours, fired
	specs := rtlgen.GenerateMix(rand.New(rand.NewSource(1)), 200)
	if testing.Short() {
		specs = specs[:40]
	}
	for _, spec := range specs {
		m, rep, err := pblock.FrontEnd(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		sweep(m, rep)
	}
	if fired == 0 || fired == detours {
		t.Fatalf("the bound decided %d of %d detour passes: one side went untested", fired, detours)
	}
	t.Logf("cnvW1A1: %d probes, the bound decided %d of %d detour passes", cnvProbes, cnvFired, cnvDetours)
	t.Logf("%d-module mix: %d probes, the bound decided %d of %d detour passes", len(specs),
		probes-cnvProbes, fired-cnvFired, detours-cnvDetours)
}
