// Package route implements an analytic global-routing congestion model
// for placements inside a PBlock. It decides routability — the second
// half of the feasibility oracle behind the minimal correction factor —
// and produces the wirelength/congestion figures the timing model uses.
//
// The model is a RISA-style probabilistic router: every net spreads its
// expected wirelength demand over its bounding box, scaled by a fanout
// correction factor; overflowed nets are "rerouted" once by inflating
// their boxes (detour modeling), a pass skipped when its total demand
// alone already exceeds the rectangle's capacity. A probe whose boxes
// overlap deeply is first put to a certificate: difference arrays give
// every tile's demand to within a proven rounding margin and its exact
// coverage in O(boxes + tiles), and when no tile lies within that margin
// of the capacity they decide a reject — the overflow count, the touch
// test and the detour bound exactly — without spreading a box; any
// other probe spreads. This keeps a single feasibility probe cheap
// enough to run tens of thousands of times during dataset generation
// while preserving the paper's §V-D/§V-E couplings: high fanout and high
// cell density both raise demand and force larger PBlocks.
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

// Result summarizes one routing probe. PeakUtil, AvgUtil and
// OverflowFrac describe the last pass measured: the first pass when it
// routes (or under AssumeRoutable), the detour pass otherwise — except
// when the detour bound decided the probe infeasible (DetourBounded),
// which skips the detour pass; then they are the first pass's, and
// AvgUtil may be the certificate's estimate of it (see AvgUtil). The
// wirelength figures are always the first pass's boxes.
type Result struct {
	// Feasible reports whether the placement routes within the limits.
	Feasible bool
	// PeakUtil is the highest per-tile channel utilization.
	PeakUtil float64
	// AvgUtil is the mean utilization over tiles with any demand. On a
	// probe the certificate decided (a DetourBounded one that spread no
	// box) it is the mean of the certificate's per-tile estimates: each
	// within the certificate's margin of the tile's demand, so the mean
	// is within that margin over CapacityPerTile (below 2·10⁻¹⁰ on the
	// cnvW1A1 blocks and a 200-module mix), up to the rounding of the
	// two means, of the first pass's. Every other field is exact.
	AvgUtil float64
	// OverflowFrac is the fraction of tiles above 1.0 utilization.
	OverflowFrac float64
	// AvgNetHPWL is the mean half-perimeter wirelength of routed nets,
	// in tiles.
	AvgNetHPWL float64
	// TotalWirelength is the summed HPWL of all nets, in tiles.
	TotalWirelength float64
	// DetourBounded reports an infeasible probe the detour bound
	// decided, after the first pass spread its boxes or after the
	// certificate decided that pass without spreading them: its
	// utilization figures are the first pass's.
	DetourBounded bool
}

// bbox is a net bounding box in rect-local tile coordinates — int16
// like the place.Coord they come from: a module has one box per net.
type bbox struct {
	x0, y0, x1, y1 int16
	q              float64 // fanout correction
}

// The methods take a pointer: bbox has more fields than the compiler
// keeps in registers, and a copied box costs the hot loops a store and
// reload per use.
func (b *bbox) width() int  { return int(b.x1) - int(b.x0) + 1 }
func (b *bbox) height() int { return int(b.y1) - int(b.y0) + 1 }

func (b *bbox) hpwl() float64 { return hpwlOf(b.x0, b.y0, b.x1, b.y1) }

// hpwlOf is the half-perimeter wirelength of the box spanning x0..x1 by
// y0..y1.
func hpwlOf(x0, y0, x1, y1 int16) float64 {
	return float64(int(x1) - int(x0) + int(y1) - int(y0))
}

// per is the demand b adds to each of its tiles: its expected
// wirelength spread uniformly over its area.
func (b *bbox) per() float64 {
	wl := b.hpwl() * b.q
	return wl / float64(b.width()*b.height())
}

// Route probes the routability of a placement. It is the one-shot form
// of new(Scratch).Route(pl, cfg); a caller probing many placements of
// one module should hold the Scratch.
func Route(pl *place.Placement, cfg Config) Result {
	return new(Scratch).Route(pl, cfg)
}

// Scratch is the working memory of a routing probe: the net boxes and
// the per-tile demand and overflow maps, and the certificate's coverage
// counts and inflation tables. A probe overwrites whatever an earlier
// one left before reading it, so the result is the same from a fresh
// Scratch as from one any earlier probe has used. Not safe for
// concurrent probes: concurrent callers hold one each.
type Scratch struct {
	boxes  []bbox
	demand []float64
	over   []bool
	cover  []int32
	grow   []int
}

// Route probes the routability of a placement, like the package-level
// Route, in the scratch's tables.
func (s *Scratch) Route(pl *place.Placement, cfg Config) Result {
	res, _, _ := s.route(pl, cfg)
	return res
}

// detourSlack is the relative margin by which the detour pass's total
// demand must exceed the rectangle's capacity before the bound decides
// a probe: it covers the rounding of spreading and summing that demand
// (below 3e-11 at 10^5 nets and tiles).
const detourSlack = 1e-9

// certifyDepth is how many times the boxes' summed area must exceed
// their count plus the rectangle's tiles before a probe tries the
// certificate. Spreading costs one addition per covered tile; the
// certificate about eight operations per box (four corners in each of
// two difference arrays) and per tile (their prefix sums, the tile
// pass, the overflow counts), so below this depth it saves little even
// on a reject and costs a feasible probe most of a spread.
const certifyDepth = 8

// route is Route, also returning the detour bound's load — the inflated
// boxes' summed wirelength over CapacityPerTile·w·h — when that bound
// decided the probe, and 0 when it did not, and whether the certificate
// decided it. A probe the certificate may decide and that is worth its
// cost (worthCertifying) tries it first; it decides most route rejects
// without spreading a box, and whatever it leaves undecided takes the
// two-pass probe.
func (s *Scratch) route(pl *place.Placement, cfg Config) (res Result, load float64, certified bool) {
	w, h := pl.Rect.Width(), pl.Rect.Height()
	if w <= 0 || h <= 0 {
		return Result{Feasible: false}, 0, false
	}
	boxes := s.netBoxes(pl)
	if !cfg.AssumeRoutable {
		if area, ok := s.worthCertifying(boxes, w, h, cfg); ok {
			if res, load, ok := s.certify(boxes, area, w, h, cfg); ok {
				return res, load, true
			}
		}
	}
	res, load = s.twoPass(boxes, w, h, cfg)
	return res, load, false
}

// worthCertifying returns the boxes' summed area, the tiles a spread
// visits, and whether the certificate is worth trying: the boxes are at
// least certifyDepth deep, and the detour bound could decide with every
// box inflated. For a DetourInflate ≥ 1 that load bounds the one the
// bound reads, summed in the same order, so a probe below it — most
// feasible ones — skips the certificate it could not pass.
func (s *Scratch) worthCertifying(boxes []bbox, w, h int, cfg Config) (area int, ok bool) {
	for i := range boxes {
		area += boxes[i].width() * boxes[i].height()
	}
	if area < certifyDepth*(len(boxes)+w*h) {
		return area, false
	}
	dx, dy := s.growth(w, h, cfg.DetourInflate)
	most := 0.0
	for i := range boxes {
		b := &boxes[i]
		most += hpwlOf(widen(b, dx[b.width()], dy[b.height()], w, h)) * b.q
	}
	return area, most > (1+detourSlack)*cfg.CapacityPerTile*float64(w*h)
}

// twoPass spreads the boxes, measures, and on a first-pass reject
// inflates the boxes touching an overflowed tile and measures again.
//
// The detour pass spreads each box's whole wirelength over its tiles,
// so its tiles' demands sum to Σ hpwl·q, and measure divides their
// utilization by the active tiles, at most w·h. A load above 1 (by more
// than the rounding) therefore means an AvgUtil above 1: infeasible,
// and known without spreading or measuring the pass.
func (s *Scratch) twoPass(boxes []bbox, w, h int, cfg Config) (Result, float64) {
	demand := s.demandMap(w, h)
	clear(demand)
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

	// Detour pass: inflate every box that touches an overflowed tile and
	// re-measure. This models rip-up-and-reroute spreading hotspots.
	over := s.over[:w*h]
	for i, d := range demand {
		over[i] = d > cfg.CapacityPerTile
	}
	total := 0.0
	for i := range boxes {
		if touchesOverflow(over, w, boxes[i]) {
			boxes[i] = inflate(boxes[i], cfg.DetourInflate, w, h)
		}
		total += boxes[i].hpwl() * boxes[i].q
	}
	if capacity := cfg.CapacityPerTile * float64(w*h); total > (1+detourSlack)*capacity {
		res.DetourBounded = true
		return res, total / capacity
	}
	clear(demand)
	for _, b := range boxes {
		addDemand(demand, w, b)
	}
	res2 := measure(demand, w, h, cfg)
	res2.AvgNetHPWL, res2.TotalWirelength = res.AvgNetHPWL, res.TotalWirelength
	return res2, 0
}

// demandMap returns the w·h demand map, growing the demand and overflow
// tables together.
func (s *Scratch) demandMap(w, h int) []float64 {
	if cap(s.demand) < w*h {
		s.demand, s.over = make([]float64, w*h), make([]bool, w*h)
	}
	return s.demand[:w*h]
}

// certify decides a probe the first pass rejects without spreading its
// boxes, or reports ok false, and then the caller takes twoPass. It
// builds two difference arrays over the tiles — each box's per-tile
// demand at its four corners, and its coverage — whose prefix sums are
// an estimate est of every tile's demand and the exact count of boxes
// covering it: O(boxes + w·h) instead of O(Σ box area). A tile is active
// exactly when its count is > 0, since every box's per-tile demand is
// > 0.
//
// The margin E = 2⁻⁵⁰·(N·S + C), with S the boxes' summed per-tile
// demand, N = boxes + w + h and C = CapacityPerTile, bounds how far est
// can lie from the demand twoPass sums. Both approximate the same real
// sum: twoPass's sequential sum puts each term through at most boxes
// additions (error ≤ γ_boxes·S); est carries four corner terms per box
// through at most one addition per box at its corner, w along its row
// and h down its column (error ≤ γ_N·4S); and 5·γ_N·S < 2⁻⁵⁰·N·S with room for the rounding of S, E
// and the thresholds. The C term keeps every tile outside C ± E more
// than 2⁻⁵¹·C from C, where d > C and d/C > 1 agree. Any covered tile
// within E of C makes the probe undecided; otherwise the overflow map
// and count are twoPass's exactly, and so are OverflowFrac, the touch
// test (a 2D prefix count of overflowed tiles, O(1) per box), the
// inflated boxes (inflate's growth, tabled per width and height) and
// the detour bound's Σ hpwl·q, summed in box order. A decided probe's
// PeakUtil is exact as well: only a tile whose estimate is within 2E of
// the highest can hold the highest demand, and those are re-summed in
// box order. Its AvgUtil is the mean of est over C, within E/C of
// twoPass's up to the rounding of the two means.
func (s *Scratch) certify(boxes []bbox, area, w, h int, cfg Config) (res Result, load float64, ok bool) {
	c := cfg.CapacityPerTile
	if !(c > 0 && c <= math.MaxFloat64) {
		return Result{}, 0, false
	}
	est := s.demandMap(w, h)
	if cap(s.cover) < w*h {
		s.cover = make([]int32, w*h)
	}
	cover := s.cover[:w*h]
	clear(est)
	clear(cover)
	sum := 0.0
	for i := range boxes {
		b := &boxes[i]
		per := b.per()
		sum += per
		at, dx, dy := int(b.y0)*w+int(b.x0), b.width(), b.height()*w
		est[at] += per
		cover[at]++
		right := int(b.x1)+1 < w
		if right {
			est[at+dx] -= per
			cover[at+dx]--
		}
		if int(b.y1)+1 < h {
			est[at+dy] -= per
			cover[at+dy]--
			if right {
				est[at+dy+dx] += per
				cover[at+dy+dx]++
			}
		}
	}
	prefixSums(est, w, h)
	prefixSums(cover, w, h)

	e := 0x1p-50 * (float64(len(boxes)+w+h)*sum + c)
	lo, hi := c-e, c+e
	active, over := 0, 0
	usum, top := 0.0, 0.0
	for i, d := range est {
		if cover[i] == 0 {
			continue
		}
		if d >= lo && d <= hi {
			return Result{}, 0, false
		}
		active++
		usum += d / c
		top = max(top, d)
		cover[i] = 0
		if d > hi {
			cover[i] = 1
			over++
		}
	}
	res.AvgUtil = usum / float64(active)
	res.OverflowFrac = float64(over) / float64(w*h)
	if !(res.OverflowFrac > cfg.MaxOverflowFrac) {
		return Result{}, 0, false
	}

	// The first pass rejects; the detour bound, on the exact overflow map.
	prefixSums(cover, w, h)
	dx, dy := s.growth(w, h, cfg.DetourInflate)
	total, wl := 0.0, 0.0
	for i := range boxes {
		b := &boxes[i]
		hp := b.hpwl()
		wl += hp // hpwlStats' sum, in its order
		if boxCount(cover, w, b) > 0 {
			hp = hpwlOf(widen(b, dx[b.width()], dy[b.height()], w, h))
		}
		total += hp * b.q
	}
	capacity := c * float64(w*h)
	if !(total > (1+detourSlack)*capacity) {
		return Result{}, 0, false
	}

	peak, ok := exactPeak(est, w, boxes, top-2*e, area)
	if !ok {
		return Result{}, 0, false
	}
	res.PeakUtil = peak / c
	res.AvgNetHPWL, res.TotalWirelength = wl/float64(len(boxes)), wl
	res.DetourBounded = true
	return res, total / capacity, true
}

// prefixSums turns a w×h difference array into its 2D prefix sums in
// place: a running sum along each row, plus the row above's result.
func prefixSums[T float64 | int32](a []T, w, h int) {
	for y := 0; y < h; y++ {
		row := a[y*w : y*w+w]
		var run T
		for x := range row {
			run += row[x]
			row[x] = run
		}
		if y > 0 {
			for x, p := range a[(y-1)*w : y*w] {
				row[x] += p
			}
		}
	}
}

// boxCount is the number of overflowed tiles in box b, from the
// inclusive 2D prefix counts p.
func boxCount(p []int32, w int, b *bbox) int32 {
	x0, y0, x1, y1 := int(b.x0), int(b.y0), int(b.x1), int(b.y1)
	n := p[y1*w+x1]
	if y0 > 0 {
		n -= p[(y0-1)*w+x1]
	}
	if x0 > 0 {
		n -= p[y1*w+x0-1]
		if y0 > 0 {
			n += p[(y0-1)*w+x0-1]
		}
	}
	return n
}

// growth returns inflate's growth by factor f for every box width up
// to w and height up to h, indexed by the width or height.
func (s *Scratch) growth(w, h int, f float64) (dx, dy []int) {
	if cap(s.grow) < w+h+2 {
		s.grow = make([]int, w+h+2)
	}
	dx, dy = s.grow[:w+1], s.grow[w+1:w+h+2]
	for n := range dx {
		dx[n] = growBy(n, f)
	}
	for n := range dy {
		dy[n] = growBy(n, f)
	}
	return dx, dy
}

// exactPeak sums, as addDemand does, the demand of every tile whose
// estimate is at least floor, and returns the highest. It reports ok
// false, unsummed, when that would cost more than spreading: more than
// area box tests.
func exactPeak(est []float64, w int, boxes []bbox, floor float64, area int) (peak float64, ok bool) {
	n := 0
	for _, d := range est {
		if d >= floor {
			n++
		}
	}
	if n*len(boxes) > area {
		return 0, false
	}
	for i, d := range est {
		if d < floor {
			continue
		}
		x, y := i%w, i/w
		sum := 0.0
		for j := range boxes {
			if b := &boxes[j]; int(b.x0) <= x && x <= int(b.x1) && int(b.y0) <= y && y <= int(b.y1) {
				sum += b.per()
			}
		}
		peak = max(peak, sum)
	}
	return peak, true
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
	per := b.per()
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
	b.x0, b.y0, b.x1, b.y1 = widen(&b, growBy(b.width(), f), growBy(b.height(), f), w, h)
	return b
}

// growBy is how far inflate grows a box side of n tiles at each end.
func growBy(n int, f float64) int { return int(math.Ceil(float64(n) * (f - 1) / 2)) }

// widen returns the corners of b grown by dx tiles left and right and
// dy up and down, clamped to the w×h rectangle.
func widen(b *bbox, dx, dy, w, h int) (x0, y0, x1, y1 int16) {
	return int16(max(0, int(b.x0)-dx)), int16(max(0, int(b.y0)-dy)),
		int16(min(w-1, int(b.x1)+dx)), int16(min(h-1, int(b.y1)+dy))
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
