package place_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"macroflow/internal/cnv"
	"macroflow/internal/fabric"
	"macroflow/internal/netlist"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/route"
	"macroflow/internal/rtlgen"
	"macroflow/internal/synth"
)

// The linear sweep's window on cnvW1A1 (rwflow, the daemon, cmd/bench).
const (
	sweepStart = 0.5
	sweepStep  = 0.02
	sweepMax   = 3.0
)

// probe is one distinct rectangle of a sweep with the outcome of a
// from-scratch place.Place in it.
type probe struct {
	rect fabric.Rect
	pl   *place.Placement
	err  error
}

// sweepProbes walks the module's linear sweep with one-shot place.Place
// calls and returns its distinct PBlock rectangles in grid order, up to
// and including the first that places and routes (the sweep's last
// probe), or the whole window when none does.
func sweepProbes(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, cfg pblock.Config) []probe {
	var probes []probe
	for i := 0; ; i++ {
		cf := float64(int((sweepStart+float64(i)*sweepStep)*50+0.5)) / 50
		if cf > sweepMax+1e-9 {
			return probes
		}
		pb, err := pblock.Build(dev, rep, cf, cfg)
		if err != nil {
			return probes
		}
		if n := len(probes); n > 0 && probes[n-1].rect == pb.Rect {
			continue
		}
		pl, err := place.Place(dev, m, rep, pb.Rect, cfg.Place)
		probes = append(probes, probe{rect: pb.Rect, pl: pl, err: err})
		if err == nil && route.Route(pl, cfg.Route).Feasible {
			return probes
		}
	}
}

// requireSameOutcome compares a probe on a reused plan with the one-shot
// reference: the same placement, or the same rejection.
func requireSameOutcome(t *testing.T, what string, got *place.Placement, gotErr error, want *place.Placement, wantErr error) {
	t.Helper()
	if wantErr != nil {
		var w, g *place.ErrInfeasible
		if !errors.As(wantErr, &w) {
			t.Fatalf("%s: one-shot failed with a non-ErrInfeasible error: %v", what, wantErr)
		}
		if !errors.As(gotErr, &g) || g.Reason != w.Reason {
			t.Fatalf("%s: reused plan: %v, one-shot: %v", what, gotErr, wantErr)
		}
		return
	}
	if gotErr != nil {
		t.Fatalf("%s: reused plan failed (%v) where one-shot placed", what, gotErr)
	}
	if !reflect.DeepEqual(got.CellAt, want.CellAt) {
		t.Fatalf("%s: CellAt differs between reused plan and one-shot", what)
	}
	if got.UsedSlices != want.UsedSlices || got.Spread != want.Spread || got.Rect != want.Rect {
		t.Fatalf("%s: UsedSlices/Spread/Rect %d/%v/%v, one-shot %d/%v/%v", what,
			got.UsedSlices, got.Spread, got.Rect, want.UsedSlices, want.Spread, want.Rect)
	}
	if !reflect.DeepEqual(got.Footprint, want.Footprint) {
		t.Fatalf("%s: Footprint differs between reused plan and one-shot", what)
	}
}

// checkPlanReuse places m into every rectangle of its sweep twice on one
// plan — ascending like the sweep, then descending, so each probe
// inherits tables sized for a different rectangle, from rejected and
// accepted probes alike — and requires every outcome to equal a fresh
// one-shot place.Place.
func checkPlanReuse(t *testing.T, dev *fabric.Device, m *netlist.Module, opts place.Options) (probes, rejected int) {
	t.Helper()
	rep := place.QuickPlace(m)
	cfg := pblock.DefaultConfig()
	cfg.Place = opts
	want := sweepProbes(dev, m, rep, cfg)
	plan := place.NewPlan(m, rep)
	for _, w := range want {
		pl, err := plan.Place(dev, w.rect, opts)
		requireSameOutcome(t, m.Name+" ascending", pl, err, w.pl, w.err)
		if w.err != nil {
			rejected++
		}
	}
	for i := len(want) - 1; i >= 0; i-- {
		pl, err := plan.Place(dev, want[i].rect, opts)
		requireSameOutcome(t, m.Name+" descending", pl, err, want[i].pl, want[i].err)
	}
	return 2 * len(want), rejected
}

// TestPlanReuseMatchesOneShotCNV is the differential proof behind the
// probe loop: over every rectangle every cnvW1A1 block's sweep visits,
// rejected ones included, a plan that has served any number of probes
// answers exactly like a from-scratch place.Place.
func TestPlanReuseMatchesOneShotCNV(t *testing.T) {
	dev := fabric.XC7Z020()
	d := cnv.CNVW1A1()
	probes, rejected := 0, 0
	for ti := range d.Types {
		m, err := d.Module(ti)
		if err != nil {
			t.Fatal(err)
		}
		p, r := checkPlanReuse(t, dev, m, place.Options{})
		probes, rejected = probes+p, rejected+r
	}
	if rejected == 0 {
		t.Fatal("the sweeps rejected no rectangle: the reject path went untested")
	}
	t.Logf("%d reused-plan probes compared, %d distinct rectangles rejected", probes, rejected)
}

// TestPlanReuseMatchesOneShotCorpus repeats the comparison on a
// 200-module dataset mix, cycling through the placer's options.
func TestPlanReuseMatchesOneShotCorpus(t *testing.T) {
	dev := fabric.XC7Z020()
	specs := rtlgen.GenerateMix(rand.New(rand.NewSource(7)), 200)
	if testing.Short() {
		specs = specs[:40]
	}
	for i, spec := range specs {
		m, err := synth.Elaborate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := synth.Optimize(m); err != nil {
			t.Fatal(err)
		}
		var opts place.Options
		switch i % 5 {
		case 1:
			opts.PreOccupy = 0.2
		case 2:
			opts.IgnoreControlSets = true
		case 3:
			opts.Compact = true
		case 4:
			opts.Seed = 42
		}
		checkPlanReuse(t, dev, m, opts)
	}
}

// lutExhausted reports whether err is the LUT phase's capacity reject,
// and its reason.
func lutExhausted(err error) (string, bool) {
	var inf *place.ErrInfeasible
	if errors.As(err, &inf) && strings.HasPrefix(inf.Reason, "LUT capacity exhausted") {
		return inf.Reason, true
	}
	return "", false
}

// checkLUTCount holds placeLUTs' counted reject against its reference,
// the fill loop run to exhaustion, on every rectangle of m's sweep: the
// count says "does not fit" exactly when the loop leaves a LUT unplaced,
// the loop then placed exactly the counted capacity, and the probe's
// error reads what the loop's own count would have printed.
func checkLUTCount(t *testing.T, dev *fabric.Device, m *netlist.Module, opts place.Options) (probes, rejects, exact int) {
	t.Helper()
	rep := place.QuickPlace(m)
	cfg := pblock.DefaultConfig()
	cfg.Place = opts
	plan := place.NewPlan(m, rep)
	for _, w := range sweepProbes(dev, m, rep, cfg) {
		reason, rejected := lutExhausted(w.err)
		count, placed, luts, reached := place.LUTCountVsFill(plan, dev, w.rect, opts)
		if !reached || luts == 0 {
			if rejected {
				t.Fatalf("%s %v: LUT reject from a probe that never reached the LUT phase", m.Name, w.rect)
			}
			continue
		}
		probes++
		if (count < luts) != (placed < luts) {
			t.Fatalf("%s %v: counted capacity %d, fill loop placed %d of %d LUTs", m.Name, w.rect, count, placed, luts)
		}
		if rejected != (placed < luts) {
			t.Fatalf("%s %v: probe said %v, fill loop placed %d of %d LUTs", m.Name, w.rect, w.err, placed, luts)
		}
		if !rejected {
			// count >= luts: the probe ran the loop, so no cell of a
			// placement it returned may be left without a site.
			for c := 0; w.err == nil && c < len(w.pl.CellAt); c++ {
				if w.pl.CellAt[c].X < 0 {
					t.Fatalf("%s %v: accepted with cell %d unplaced (counted capacity %d for %d LUTs)", m.Name, w.rect, c, count, luts)
				}
			}
			if count == luts {
				exact++
			}
			continue
		}
		rejects++
		if placed != count {
			t.Fatalf("%s %v: fill loop placed %d LUTs, counted capacity %d", m.Name, w.rect, placed, count)
		}
		if want := fmt.Sprintf("LUT capacity exhausted (%d/%d placed)", placed, luts); reason != want {
			t.Fatalf("%s %v: reason %q, the fill loop's %q", m.Name, w.rect, reason, want)
		}
	}
	return probes, rejects, exact
}

// TestLUTCountMatchesFill is the differential proof behind the counted
// reject, over every rectangle of every cnvW1A1 block's sweep under
// each of the placer's options, and a 200-module dataset mix cycling
// through them.
func TestLUTCountMatchesFill(t *testing.T) {
	dev := fabric.XC7Z020()
	variants := []place.Options{{}, {Compact: true}, {IgnoreControlSets: true}, {PreOccupy: 0.3}, {Seed: 7}}
	probes, rejects, exact := 0, 0, 0
	d := cnv.CNVW1A1()
	for ti := range d.Types {
		m, err := d.Module(ti)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range variants {
			p, r, e := checkLUTCount(t, dev, m, opts)
			probes, rejects, exact = probes+p, rejects+r, exact+e
		}
	}
	specs := rtlgen.GenerateMix(rand.New(rand.NewSource(7)), 200)
	if testing.Short() {
		specs = specs[:40]
	}
	for i, spec := range specs {
		m, err := synth.Elaborate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := synth.Optimize(m); err != nil {
			t.Fatal(err)
		}
		p, r, e := checkLUTCount(t, dev, m, variants[i%len(variants)])
		probes, rejects, exact = probes+p, rejects+r, exact+e
	}
	if rejects == 0 || rejects == probes || exact == 0 {
		t.Fatalf("%d probes, %d counted rejects, %d with capacity == LUTs: a side of the count went untested", probes, rejects, exact)
	}
	t.Logf("%d probes reached the LUT phase, %d rejected by the count, %d fit exactly", probes, rejects, exact)
}

// weights14Reject returns cnvW1A1's weights_14 — the block whose sweep is
// the longest of the design — and the largest rectangle of that sweep
// the placer rejects: the reject path at its most expensive.
func weights14Reject(t testing.TB) (*fabric.Device, *netlist.Module, place.ShapeReport, fabric.Rect) {
	t.Helper()
	dev := fabric.XC7Z020()
	d := cnv.CNVW1A1()
	m, err := d.Module(d.TypeIndex("weights_14"))
	if err != nil {
		t.Fatal(err)
	}
	rep := place.QuickPlace(m)
	probes := sweepProbes(dev, m, rep, pblock.DefaultConfig())
	for i := len(probes) - 1; i >= 0; i-- {
		if probes[i].err != nil {
			return dev, m, rep, probes[i].rect
		}
	}
	t.Fatal("weights_14's sweep has no placement reject")
	panic("unreachable")
}

// TestRejectedProbeAllocs gates the allocations of a rejected probe on a
// reused plan — a reject by counting, like every placement reject of
// weights_14's sweep: the site tables, the control-set table, the cell
// coordinates and the random source are all inherited, so what is left
// is the error value with its formatted reason: 4 allocations. The bound
// leaves one more for the race detector, under which the measurement
// also counts an allocation of its runtime. Raise it only for a reason.
func TestRejectedProbeAllocs(t *testing.T) {
	dev, m, rep, rect := weights14Reject(t)
	plan := place.NewPlan(m, rep)
	allocs := testing.AllocsPerRun(20, func() {
		_, _ = plan.Place(dev, rect, place.Options{})
	})
	const bound = 5
	if allocs > bound {
		t.Errorf("rejected probe on a reused plan: %.0f allocs, bound %d", allocs, bound)
	}
	t.Logf("rejected weights_14 probe: %.0f allocs on a reused plan", allocs)
}
