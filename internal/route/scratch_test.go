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

// TestDetourBoundMatchesReference holds the detour bound and the
// certificate against the two-pass probe they shortcut (route.RefRoute)
// on every place-legal rectangle of the cnvW1A1 sweep
// (TestRouteScratchMatchesOneShot's corpus) and of a 200-module dataset
// mix swept from CF 0.5 on xc7z020: the same verdict on every probe,
// the same Result bit for bit when feasible, and wherever the bound
// decides, its load is no more than the detour pass's Σu/(w·h) and that
// pass's AvgUtil is above 1. An unsound bound changes a verdict only
// where the detour pass would have rescued the probe, which is rare;
// the last two checks catch it wherever it decides. The certificate,
// run on every probe whatever its depth, decides only probes the
// exact two-pass probe bounds, with the same Result in every field but
// AvgUtil, which lies within 10⁻⁹ of the exact one; a probe route
// certifies is the certificate's, and every other is the two-pass
// probe's, bit for bit.
func TestDetourBoundMatchesReference(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := pblock.DefaultConfig()
	var s route.Scratch
	var n tally
	// check probes pl every way and reports the reference's verdict.
	check := func(pl *place.Placement) bool {
		what := fmt.Sprintf("%s %v", pl.Module.Name, pl.Rect)
		feasible, err := checkProbe(&s, pl, cfg.Route, &n)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return feasible
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
	cnv := n
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
	if n.fired == 0 || n.fired == n.detours {
		t.Fatalf("the bound decided %d of %d detour passes: one side went untested", n.fired, n.detours)
	}
	if n.certified == 0 {
		t.Fatalf("the certificate decided none of the bound's %d", n.fired)
	}
	t.Logf("cnvW1A1: %v", cnv)
	t.Logf("%d-module mix: %v", len(specs), n.minus(cnv))
}

// tally counts probes by the path that decided them.
type tally struct {
	probes, detours, fired, certifiable, certified int
}

func (n tally) minus(m tally) tally {
	return tally{n.probes - m.probes, n.detours - m.detours, n.fired - m.fired,
		n.certifiable - m.certifiable, n.certified - m.certified}
}

func (n tally) String() string {
	return fmt.Sprintf("%d probes, %d route rejects; the detour bound decided %d, the certificate %d (%d when run on every probe)",
		n.probes, n.detours, n.fired, n.certified, n.certifiable)
}

// checkProbe probes pl through the reference, the two-pass probe, the
// certificate alone and route, counts the probe in n, and returns the
// reference's verdict, or an error naming the first disagreement (see
// TestDetourBoundMatchesReference).
func checkProbe(s *route.Scratch, pl *place.Placement, cfg route.Config, n *tally) (bool, error) {
	want, sumU := route.RefRoute(pl, cfg)
	exact, eload := s.TwoPass(pl, cfg)
	cert, cload, ok := s.Certify(pl, cfg)
	got, load, certified := s.RouteBound(pl, cfg)
	n.probes++
	switch {
	case got.Feasible != want.Feasible:
		return false, fmt.Errorf("feasible %v, reference %v", got.Feasible, want.Feasible)
	case certified && !ok:
		return false, fmt.Errorf("route certified %+v, the certificate alone did not", got)
	case certified && (!sameBits(got, cert) || load != cload || got.DetourBounded != cert.DetourBounded):
		return false, fmt.Errorf("route certified %+v (load %g), the certificate %+v (load %g)", got, load, cert, cload)
	case !certified && (!sameBits(got, exact) || load != eload || got.DetourBounded != exact.DetourBounded):
		return false, fmt.Errorf("route %+v (load %g), two-pass %+v (load %g)", got, load, exact, eload)
	case ok && !(exact.DetourBounded && cert.DetourBounded && cload == eload):
		return false, fmt.Errorf("certified %+v (load %g), two-pass %+v (load %g)", cert, cload, exact, eload)
	case ok && (!sameBits(withAvg(cert, exact.AvgUtil), exact) || math.Abs(cert.AvgUtil-exact.AvgUtil) > 1e-9*exact.AvgUtil):
		return false, fmt.Errorf("certified %+v, two-pass %+v", cert, exact)
	case want.Feasible:
		if !sameBits(got, want) || got.DetourBounded {
			return false, fmt.Errorf("%+v, reference %+v", got, want)
		}
		return true, nil
	}
	n.detours++ // an infeasible reference result is its detour pass's
	if ok {
		n.certifiable++
	}
	if certified {
		n.certified++
	}
	if !exact.DetourBounded {
		if eload != 0 || !sameBits(exact, want) {
			return false, fmt.Errorf("undecided by the bound (load %g): %+v, reference %+v", eload, exact, want)
		}
		return false, nil
	}
	n.fired++
	if eload > sumU*(1+1e-12) {
		return false, fmt.Errorf("bound %.15g above the detour pass's Σu/(w·h) %.15g", eload, sumU)
	}
	if !(want.AvgUtil > 1) {
		return false, fmt.Errorf("bound %.15g decided, but the detour pass's AvgUtil is %.15g", eload, want.AvgUtil)
	}
	return false, nil
}

// withAvg is r with AvgUtil a.
func withAvg(r route.Result, a float64) route.Result {
	r.AvgUtil = a
	return r
}
