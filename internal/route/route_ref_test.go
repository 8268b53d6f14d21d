package route

import "macroflow/internal/place"

// refRoute is the two-pass probe the detour bound shortcuts, kept as
// the reference TestDetourBoundMatchesReference compares Scratch.route
// with: a probe the first pass rejects always spreads and measures the
// detour pass, in tables of its own. Besides the result it returns the
// detour pass's summed utilization over the rectangle, Σu/(w·h) — the
// quantity the bound's load must not exceed — or 0 when the first pass
// decided.
func refRoute(pl *place.Placement, cfg Config) (Result, float64) {
	w, h := pl.Rect.Width(), pl.Rect.Height()
	if w <= 0 || h <= 0 {
		return Result{Feasible: false}, 0
	}
	boxes := new(Scratch).netBoxes(pl)
	demand := make([]float64, w*h)
	for _, b := range boxes {
		addDemand(demand, w, b)
	}
	res := measure(demand, w, h, cfg)
	res.AvgNetHPWL, res.TotalWirelength = hpwlStats(boxes)
	if cfg.AssumeRoutable {
		res.Feasible = true
		return res, 0
	}
	if res.Feasible {
		return res, 0
	}

	over := make([]bool, w*h)
	for i, d := range demand {
		over[i] = d > cfg.CapacityPerTile
	}
	clear(demand)
	for _, b := range boxes {
		if touchesOverflow(over, w, b) {
			b = inflate(b, cfg.DetourInflate, w, h)
		}
		addDemand(demand, w, b)
	}
	res2 := measure(demand, w, h, cfg)
	res2.AvgNetHPWL, res2.TotalWirelength = res.AvgNetHPWL, res.TotalWirelength
	sum := 0.0
	for _, d := range demand {
		if d != 0 {
			sum += d / cfg.CapacityPerTile // measure's sum, in measure's order
		}
	}
	return res2, sum / float64(w*h)
}

// RefRoute, RouteBound, TwoPass, Certify and FirstPassDemand open the
// reference, Scratch.route, its exact two-pass probe, its certificate
// and the first pass's demand map to the package's external tests.
// Certify runs the certificate whether or not route would try it.
var RefRoute = refRoute

func (s *Scratch) RouteBound(pl *place.Placement, cfg Config) (Result, float64, bool) {
	return s.route(pl, cfg)
}

func (s *Scratch) TwoPass(pl *place.Placement, cfg Config) (Result, float64) {
	w, h := pl.Rect.Width(), pl.Rect.Height()
	return s.twoPass(s.netBoxes(pl), w, h, cfg)
}

func (s *Scratch) Certify(pl *place.Placement, cfg Config) (Result, float64, bool) {
	w, h := pl.Rect.Width(), pl.Rect.Height()
	boxes := s.netBoxes(pl)
	area, _ := s.worthCertifying(boxes, w, h, cfg)
	return s.certify(boxes, area, w, h, cfg)
}

func FirstPassDemand(pl *place.Placement) []float64 {
	w, h := pl.Rect.Width(), pl.Rect.Height()
	demand := make([]float64, w*h)
	for _, b := range new(Scratch).netBoxes(pl) {
		addDemand(demand, w, b)
	}
	return demand
}
