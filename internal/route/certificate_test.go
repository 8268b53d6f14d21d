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
)

// firstRouteReject is the first rectangle of weights_14's sweep from CF
// 0.5 that places, a route reject the certificate decides at the
// default configuration (BenchmarkRouteReject's first probe).
func firstRouteReject(t *testing.T) (*place.Placement, route.Config) {
	t.Helper()
	dev := fabric.XC7Z020()
	cfg := pblock.DefaultConfig()
	d := cnv.CNVW1A1()
	for ti := range d.Types {
		m, err := d.Module(ti)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name != "weights_14" {
			continue
		}
		rep := place.QuickPlace(m)
		for i := 0; i < 100; i++ {
			pb, err := pblock.Build(dev, rep, math.Round((0.5+float64(i)*0.02)*50)/50, cfg)
			if err != nil {
				continue
			}
			if pl, err := place.Place(dev, m, rep, pb.Rect, cfg.Place); err == nil {
				return pl, cfg.Route
			}
		}
	}
	t.Fatal("weights_14: no placeable rectangle")
	return nil, route.Config{}
}

// TestCertificateFallsBackAtCapacity sets CapacityPerTile to every
// covered tile's exact first-pass demand, as the first pass sums it, and
// to the floats either side of it, on a rectangle the certificate
// decides at the default capacity. That tile's estimate is then within
// the certificate's margin of the capacity, so the certificate must
// leave the probe undecided, and route (checked at every eighth tile:
// the two-pass probe is the slow part) must answer as the two-pass
// probe does, bit for bit. A margin too small for the estimate's
// rounding, or an ambiguity test that misses a tile or one side of the
// window, lets the certificate decide some of these probes.
func TestCertificateFallsBackAtCapacity(t *testing.T) {
	pl, cfg := firstRouteReject(t)
	var s route.Scratch
	if _, _, ok := s.Certify(pl, cfg); !ok {
		t.Fatalf("%v: the certificate leaves the default probe undecided", pl.Rect)
	}
	tiles := 0
	for i, d := range route.FirstPassDemand(pl) {
		if d == 0 {
			continue
		}
		tiles++
		for _, c := range []float64{math.Nextafter(d, 0), d, math.Nextafter(d, math.Inf(1))} {
			at := cfg
			at.CapacityPerTile = c
			if res, _, ok := s.Certify(pl, at); ok {
				t.Fatalf("tile %d (demand %.17g), capacity %.17g: certified %+v", i, d, c, res)
			}
			if tiles%8 != 1 {
				continue
			}
			exact, eload := s.TwoPass(pl, at)
			got, load, certified := s.RouteBound(pl, at)
			if certified || !sameBits(got, exact) || load != eload || got.DetourBounded != exact.DetourBounded {
				t.Fatalf("tile %d, capacity %.17g: route %+v (load %g), two-pass %+v (load %g)", i, c, got, load, exact, eload)
			}
		}
	}
	t.Logf("%v: %d covered tiles, each left undecided three ways", pl.Rect, tiles)
}

// FuzzRouteCertificate probes random nets on a small rectangle (w, h ≤
// 12) every way checkProbe knows: the reference's verdict, the two-pass
// probe's fields bit for bit where route does not certify, and where
// the certificate decides, every field but AvgUtil. The capacity is
// drawn around the default, or set to a tile's exact first-pass demand
// to force the fallback.
func FuzzRouteCertificate(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), uint8(60), uint8(0), uint8(0))
	f.Add(int64(2), uint8(12), uint8(5), uint8(200), uint8(1), uint8(7))
	f.Add(int64(3), uint8(3), uint8(12), uint8(30), uint8(2), uint8(3))
	f.Add(int64(4), uint8(12), uint8(12), uint8(255), uint8(3), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, w, h, nets, capMode, tile uint8) {
		if err := probeRandomNets(seed, w, h, nets, capMode, tile, new(tally)); err != nil {
			t.Fatal(err)
		}
	})
}

// probeRandomNets is FuzzRouteCertificate's probe: nets random nets of
// random fanout over a w×h rectangle (each taken mod 12, plus 1), drawn
// from seed, checked by checkProbe under a capacity capMode chooses
// (tile picks the tile whose demand it reads) and counted in n.
func probeRandomNets(seed int64, w, h, nets, capMode, tile uint8, n *tally) error {
	w, h = w%12+1, h%12+1
	rng := rand.New(rand.NewSource(seed))
	m := netlist.NewModule("fuzz")
	var at []place.Coord
	cell := func() netlist.CellID {
		at = append(at, place.Coord{X: int16(rng.Intn(int(w))), Y: int16(rng.Intn(int(h)))})
		return m.AddCell(netlist.CellLUT)
	}
	for i := 0; i < int(nets); i++ {
		driver := cell()
		sinks := make([]netlist.CellID, 1+rng.Intn(rng.Intn(40)+1))
		for j := range sinks {
			sinks[j] = cell()
		}
		m.AddNet(driver, sinks...)
	}
	pl := &place.Placement{Module: m, Rect: fabric.Rect{X0: 0, Y0: 0, X1: int(w) - 1, Y1: int(h) - 1}, CellAt: at}
	cfg := route.DefaultConfig()
	switch demand := route.FirstPassDemand(pl); capMode % 4 {
	case 0:
		cfg.CapacityPerTile *= 0.05 + rng.Float64()
	case 1:
		cfg.CapacityPerTile = demand[int(tile)%len(demand)]
	case 2:
		cfg.CapacityPerTile = math.Nextafter(demand[int(tile)%len(demand)], 0)
	case 3:
		cfg.MaxOverflowFrac = rng.Float64() / 2
		cfg.CapacityPerTile = demand[int(tile)%len(demand)] * (0.5 + rng.Float64())
	}
	if _, err := checkProbe(new(route.Scratch), pl, cfg, n); err != nil {
		return fmt.Errorf("%dx%d, %d nets, capacity %.17g: %v", w, h, nets, cfg.CapacityPerTile, err)
	}
	return nil
}
