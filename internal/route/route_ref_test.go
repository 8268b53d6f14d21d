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

// RefRoute and RouteBound open the reference and Scratch.route to the
// package's external tests.
var RefRoute = refRoute

func (s *Scratch) RouteBound(pl *place.Placement, cfg Config) (Result, float64) {
	return s.route(pl, cfg)
}
