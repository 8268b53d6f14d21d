// Package route implements an analytic global-routing congestion model
// for placements inside a PBlock. It decides routability — the second
// half of the feasibility oracle behind the minimal correction factor —
// and produces the wirelength/congestion figures the timing model uses.
//
// The model is a RISA-style probabilistic router: every net spreads its
// expected wirelength demand over its bounding box, scaled by a fanout
// correction factor; overflowed nets are "rerouted" once by inflating
// their boxes (detour modeling). This keeps a single feasibility probe
// cheap enough to run tens of thousands of times during dataset
// generation while preserving the paper's §V-D/§V-E couplings: high
// fanout and high cell density both raise demand and force larger
// PBlocks.
package route

import (
	"math"

	"macroflow/internal/netlist"
	"macroflow/internal/place"
)

// Config tunes the congestion model.
type Config struct {
	// CapacityPerTile is the usable routing demand one tile absorbs.
	CapacityPerTile float64
	// PeakLimit is the maximum tolerated per-tile utilization after the
	// detour pass.
	PeakLimit float64
	// MaxOverflowFrac is the tolerated fraction of tiles above 1.0
	// utilization after the detour pass.
	MaxOverflowFrac float64
	// DetourInflate grows the bounding boxes of overflowed nets during
	// the second pass.
	DetourInflate float64
	// AssumeRoutable skips the feasibility judgement (every probe
	// reports feasible) while still computing the congestion and
	// wirelength statistics. Used by ablation studies quantifying how
	// much of the correction factor the routing model contributes.
	AssumeRoutable bool
}

// DefaultConfig returns the calibrated model parameters. The capacity is
// tuned so that a densely packed region (about 24 cells per tile at an
// average net length of ~2.5 tiles) sits just at the feasibility edge,
// which puts the minimal correction factors of ordinary modules near 1.0
// and lets fanout- and density-heavy modules climb toward the paper's
// 1.7 extreme.
func DefaultConfig() Config {
	return Config{
		CapacityPerTile: 70.0,
		PeakLimit:       3.0,
		MaxOverflowFrac: 0.25,
		DetourInflate:   1.5,
	}
}

// Result summarizes one routing probe.
type Result struct {
	// Feasible reports whether the placement routes within the limits.
	Feasible bool
	// PeakUtil is the highest per-tile channel utilization.
	PeakUtil float64
	// AvgUtil is the mean utilization over tiles with any demand.
	AvgUtil float64
	// OverflowFrac is the fraction of tiles above 1.0 utilization.
	OverflowFrac float64
	// AvgNetHPWL is the mean half-perimeter wirelength of routed nets,
	// in tiles.
	AvgNetHPWL float64
	// TotalWirelength is the summed HPWL of all nets, in tiles.
	TotalWirelength float64
}

// bbox is a net bounding box in rect-local tile coordinates — int16
// like the place.Coord they come from: a module has one box per net.
type bbox struct {
	x0, y0, x1, y1 int16
	q              float64 // fanout correction
}

func (b bbox) width() int  { return int(b.x1) - int(b.x0) + 1 }
func (b bbox) height() int { return int(b.y1) - int(b.y0) + 1 }

func (b bbox) hpwl() float64 { return float64(b.width() + b.height() - 2) }

// Route probes the routability of a placement. It is the one-shot form
// of new(Scratch).Route(pl, cfg); a caller probing many placements of
// one module should hold the Scratch.
func Route(pl *place.Placement, cfg Config) Result {
	return new(Scratch).Route(pl, cfg)
}

// Scratch is the working memory of a routing probe: the net boxes and
// the per-tile demand and overflow maps. A probe overwrites whatever an
// earlier one left before reading it, so the result is the same from a
// fresh Scratch as from one any earlier probe has used. Not safe for
// concurrent probes: concurrent callers hold one each.
type Scratch struct {
	boxes  []bbox
	demand []float64
	over   []bool
}

// Route probes the routability of a placement, like the package-level
// Route, in the scratch's tables.
func (s *Scratch) Route(pl *place.Placement, cfg Config) Result {
	w, h := pl.Rect.Width(), pl.Rect.Height()
	if w <= 0 || h <= 0 {
		return Result{Feasible: false}
	}
	boxes := s.netBoxes(pl)
	if cap(s.demand) < w*h {
		s.demand, s.over = make([]float64, w*h), make([]bool, w*h)
	}
	demand := s.demand[:w*h]
	clear(demand)
	for _, b := range boxes {
		addDemand(demand, w, b)
	}
	res := measure(demand, w, h, cfg)
	res.AvgNetHPWL, res.TotalWirelength = hpwlStats(boxes)
	if cfg.AssumeRoutable {
		res.Feasible = true
		return res
	}
	if res.Feasible {
		return res
	}

	// Detour pass: inflate every box that touches an overflowed tile and
	// re-measure. This models rip-up-and-reroute spreading hotspots.
	over := s.over[:w*h]
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
	return res2
}

// netBoxes computes the bounding box and fanout correction of every net
// with at least two placed pins.
func (s *Scratch) netBoxes(pl *place.Placement) []bbox {
	m := pl.Module
	if cap(s.boxes) < len(m.Nets) {
		s.boxes = make([]bbox, 0, len(m.Nets))
	}
	boxes := s.boxes[:0]
	for ni := range m.Nets {
		n := &m.Nets[ni]
		x0, y0 := math.MaxInt32, math.MaxInt32
		x1, y1 := -1, -1
		pins := 0
		add := func(c netlist.CellID) {
			if c == netlist.NoID {
				return
			}
			at := pl.CellAt[c]
			if at.X < 0 {
				return
			}
			x, y := int(at.X)-pl.Rect.X0, int(at.Y)-pl.Rect.Y0
			if x < x0 {
				x0 = x
			}
			if x > x1 {
				x1 = x
			}
			if y < y0 {
				y0 = y
			}
			if y > y1 {
				y1 = y
			}
			pins++
		}
		add(n.Driver)
		for _, sink := range n.Sinks {
			add(sink)
		}
		if pins < 2 || (x0 == x1 && y0 == y1) {
			continue // intra-tile or degenerate: no channel demand
		}
		boxes = append(boxes, bbox{int16(x0), int16(y0), int16(x1), int16(y1), fanoutQ(pins)})
	}
	s.boxes = boxes
	return boxes
}

// fanoutQ is the RISA-style wirelength correction for multi-pin nets.
func fanoutQ(pins int) float64 {
	switch {
	case pins <= 3:
		return 1.0
	case pins <= 5:
		return 1.1
	case pins <= 8:
		return 1.25
	case pins <= 15:
		return 1.45
	case pins <= 30:
		return 1.8
	default:
		// Saturate: very-high-fanout nets are buffered/trunk-routed in
		// practice and do not consume wiring proportional to sqrt(pins).
		return math.Min(2.2, 1.8*math.Sqrt(float64(pins)/30.0))
	}
}

// addDemand spreads a net's expected wirelength uniformly over its box.
func addDemand(demand []float64, w int, b bbox) {
	wl := b.hpwl() * b.q
	per := wl / float64(b.width()*b.height())
	for y := int(b.y0); y <= int(b.y1); y++ {
		row := demand[y*w+int(b.x0) : y*w+int(b.x1)+1]
		for x := range row {
			row[x] += per
		}
	}
}

func touchesOverflow(over []bool, w int, b bbox) bool {
	for y := int(b.y0); y <= int(b.y1); y++ {
		for _, o := range over[y*w+int(b.x0) : y*w+int(b.x1)+1] {
			if o {
				return true
			}
		}
	}
	return false
}

func inflate(b bbox, f float64, w, h int) bbox {
	dx := int(math.Ceil(float64(b.width()) * (f - 1) / 2))
	dy := int(math.Ceil(float64(b.height()) * (f - 1) / 2))
	b.x0 = int16(maxInt(0, int(b.x0)-dx))
	b.y0 = int16(maxInt(0, int(b.y0)-dy))
	b.x1 = int16(minInt(w-1, int(b.x1)+dx))
	b.y1 = int16(minInt(h-1, int(b.y1)+dy))
	return b
}

func measure(demand []float64, w, h int, cfg Config) Result {
	var r Result
	active, over := 0, 0
	sum := 0.0
	for _, d := range demand {
		if d == 0 {
			continue
		}
		u := d / cfg.CapacityPerTile
		active++
		sum += u
		if u > r.PeakUtil {
			r.PeakUtil = u
		}
		if u > 1.0 {
			over++
		}
	}
	if active > 0 {
		r.AvgUtil = sum / float64(active)
		r.OverflowFrac = float64(over) / float64(w*h)
	}
	r.Feasible = r.AvgUtil <= 1.0 &&
		r.PeakUtil <= cfg.PeakLimit &&
		r.OverflowFrac <= cfg.MaxOverflowFrac
	return r
}

func hpwlStats(boxes []bbox) (avg, total float64) {
	if len(boxes) == 0 {
		return 0, 0
	}
	for _, b := range boxes {
		total += b.hpwl()
	}
	return total / float64(len(boxes)), total
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
