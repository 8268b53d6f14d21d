// Analytic batched stitcher backend: a DREAMPlace-style global placer
// that runs vectorized gradient descent over flat float64 position
// slices — smoothed-HPWL wirelength attraction plus a Gaussian-binned
// density penalty — then snaps the continuous result onto legal ColSpan
// origins through the occupancy bitmaps. The analytic pass is a *seed*,
// not a replacement: BackendAnalytic returns the legalized placement
// directly, BackendHybrid hands it to the parallel-tempering chains so
// the annealing budget is spent refining instead of discovering.
//
// Determinism contract: the descent is bit-reproducible from Config.Seed
// alone. The only randomness is the seeded initial scatter; the descent
// runs as one loop on the calling goroutine, and the sums whose order
// could vary — the density partials and the gradient norm — are taken
// over a FIXED tiling of the instances (analyticTiles, never GOMAXPROCS)
// and reduced in tile order, so the floating point arithmetic happens
// in the same order on any machine.
package stitch

import (
	"fmt"
	"math"
	"sort"

	"macroflow/internal/obs"
	"macroflow/internal/rng"
)

// Backend selects the stitching algorithm.
type Backend string

const (
	// BackendAnneal is the parallel-tempering annealer (the default;
	// byte-identical to releases without the analytic backend).
	BackendAnneal Backend = "anneal"
	// BackendAnalytic runs the gradient-descent global placer and
	// returns its legalized placement without any annealing.
	BackendAnalytic Backend = "analytic"
	// BackendHybrid seeds the annealer's cold chain with the legalized
	// analytic placement, replacing the greedy first-fit construction.
	BackendHybrid Backend = "hybrid"
)

// ParseBackend maps the flag spellings onto a Backend ("" = anneal).
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "", BackendAnneal:
		return BackendAnneal, nil
	case BackendAnalytic:
		return BackendAnalytic, nil
	case BackendHybrid:
		return BackendHybrid, nil
	}
	return BackendAnneal, fmt.Errorf("stitch: unknown backend %q (want anneal, analytic or hybrid)", s)
}

// analyticTiles is the fixed tile count of the density partials: the
// instances split into this many contiguous ranges, each splats into
// its own grid, and the grids are summed in tile order; gradNorm sums
// per-tile partials the same way. The tiles are a summation order, not
// workers, and the count is a constant so the order never changes.
const analyticTiles = 8

// analyticSeedStride separates the scatter rng from the chain seeds.
const analyticSeedStride = 977

// analytic is the flat-slice state of one gradient-descent run. All
// per-instance arrays are indexed by instance.
type analytic struct {
	p   *Problem
	pr  *prep
	cfg Config

	// px, py are the continuous instance centers.
	px, py []float64
	// gx, gy accumulate the per-iteration gradient.
	gx, gy []float64
	// bw, bh, area cache the instance's block dimensions.
	bw, bh, area []float64

	// Density grid: nbx x nby bins of binW x binH tiles.
	nbx, nby   int
	binW, binH float64
	// capacity is the placeable tile area per bin; overflow the clamped
	// excess of the Gaussian-splatted occupied area over it.
	capacity, overflow []float64
	// slopeX, slopeY are the overflow field's central differences per
	// bin, indices clamped at the grid edge. Their extra last element
	// is a constant 0: the difference a bin index outside the grid
	// reads, both neighbours clamping onto the same edge bin.
	slopeX, slopeY []float64
	// atX[i], atY[i] index instance i's bin in slopeX and slopeY, set
	// by the splat that reads the instance's position.
	atX, atY []int32
	// tiled holds one private density accumulator per tile, summed per
	// bin in fixed tile order; tile t owns instances tileLo[t] up to
	// tileLo[t+1].
	tiled  [analyticTiles][]float64
	tileLo [analyticTiles + 1]int
	// splat[9*b:9*b+9] is block b's normalized 3x3 splat, row-major from
	// the bin below-left of the center: the nine weights an instance
	// whose center bin is interior adds to the grid. They depend on the
	// block's area alone, so they are built once with the expression the
	// general (edge-bin) path evaluates per instance per iteration.
	splat []float64

	// telemetry of the last iteration (fed to obs only — never results).
	gradNorm, totalOverflow float64
	iters                   int
}

// newAnalytic builds the descent state with a seeded initial scatter:
// instances start near the device center, jittered by the Seed-derived
// rng so symmetric nets do not collapse onto one point.
func newAnalytic(p *Problem, pr *prep, cfg Config) *analytic {
	n := len(p.Instances)
	g := &analytic{
		p: p, pr: pr, cfg: cfg,
		px: make([]float64, n), py: make([]float64, n),
		gx: make([]float64, n), gy: make([]float64, n),
		bw: make([]float64, n), bh: make([]float64, n),
		area: make([]float64, n),
		atX:  make([]int32, n), atY: make([]int32, n),
	}
	W, H := float64(p.Dev.NumCols()), float64(p.Dev.Rows)
	scatter := rng.New(cfg.Seed + analyticSeedStride)
	for i := range p.Instances {
		b := &p.Blocks[p.Instances[i].Block]
		g.bw[i] = float64(b.Width)
		g.bh[i] = float64(b.Height)
		g.area[i] = float64(b.Area())
		g.px[i] = W/2 + (scatter.Float64()-0.5)*W/2
		g.py[i] = H/2 + (scatter.Float64()-0.5)*H/2
	}
	// Bin the device at roughly clock-region-fifth granularity: wide
	// enough that a mid-sized block spans a few bins, fine enough that
	// the overflow gradient has somewhere to point.
	g.binW, g.binH = 4, 10
	g.nbx = int(math.Ceil(W / g.binW))
	g.nby = int(math.Ceil(H / g.binH))
	nb := g.nbx * g.nby
	g.capacity = make([]float64, nb)
	g.overflow = make([]float64, nb)
	g.slopeX = make([]float64, nb+1)
	g.slopeY = make([]float64, nb+1)
	for t := range g.tiled {
		g.tiled[t] = make([]float64, nb)
		g.tileLo[t+1] = (t + 1) * n / analyticTiles
	}
	sum := 0.0
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			sum += splatW[dx+1] * splatW[dy+1]
		}
	}
	g.splat = make([]float64, 9*len(p.Blocks))
	for bi := range p.Blocks {
		area := float64(p.Blocks[bi].Area())
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				g.splat[9*bi+3*(dy+1)+dx+1] = area * splatW[dx+1] * splatW[dy+1] / sum
			}
		}
	}
	// Per-bin capacity: every placeable column (anything a ColSpan can
	// occupy — clock and IO columns never carry logic) contributes its
	// row count.
	for x := 0; x < p.Dev.NumCols(); x++ {
		k := p.Dev.KindAt(x).String()
		if k == "K" || k == "O" { // clock / IO columns hold no block logic
			continue
		}
		bx := int(float64(x) / g.binW)
		for by := 0; by < g.nby; by++ {
			lo := float64(by) * g.binH
			hi := math.Min(lo+g.binH, H)
			g.capacity[by*g.nbx+bx] += hi - lo
		}
	}
	return g
}

// gaussian splat kernel over the 3x3 bin neighbourhood, sigma one bin.
var splatW = [3]float64{math.Exp(-0.5), 1, math.Exp(-0.5)}

// splatAll rebuilds the density field from the current positions and
// reduces it. Each tile's grid takes its instances in index order; the
// loop steps through the tiles' k-th instances together, so the eight
// grids' accumulations are independent of one another and overlap.
func (g *analytic) splatAll() {
	for t := range g.tiled {
		clear(g.tiled[t])
	}
	for k := 0; k < (len(g.px)+analyticTiles-1)/analyticTiles; k++ { // longest tile
		for t := range g.tiled {
			if i := g.tileLo[t] + k; i < g.tileLo[t+1] && g.area[i] > 0 {
				g.splatInst(g.tiled[t], i)
			}
		}
	}
	g.reduceDensity()
}

// splatInst adds instance i's splat to bins and records the instance's
// bin in atX/atY for the next gradient.
func (g *analytic) splatInst(bins []float64, i int) {
	cx := int(g.px[i] / g.binW)
	cy := int(g.py[i] / g.binH)
	if cx < 1 || cx >= g.nbx-1 || cy < 1 || cy >= g.nby-1 {
		g.splatEdge(bins, i, cx, cy)
		return
	}
	// Interior center bin: all nine neighbours exist, so the
	// normalizing sum is the constant the table was built with.
	b := cy*g.nbx + cx
	g.atX[i], g.atY[i] = int32(b), int32(b)
	w := g.splat[9*g.p.Instances[i].Block:][:9]
	for r := 0; r < 3; r++ {
		row := bins[b+(r-1)*g.nbx-1:][:3]
		row[0] += w[3*r]
		row[1] += w[3*r+1]
		row[2] += w[3*r+2]
	}
}

// splatEdge is splatInst for a center bin on the grid edge or off it.
// The slope across an off-grid index is the constant 0 at the end of
// the slope slices; along the other axis the index clamps onto the
// grid.
func (g *analytic) splatEdge(bins []float64, i, cx, cy int) {
	nb := int32(g.nbx * g.nby)
	g.atX[i], g.atY[i] = nb, nb
	if cx >= 0 && cx < g.nbx {
		g.atX[i] = int32(min(max(cy, 0), g.nby-1)*g.nbx + cx)
	}
	if cy >= 0 && cy < g.nby {
		g.atY[i] = int32(cy*g.nbx + min(max(cx, 0), g.nbx-1))
	}
	// Normalized 3x3 Gaussian splat centered on the bin under the
	// instance center, clipped at the grid edge.
	sum := 0.0
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			bx, by := cx+dx, cy+dy
			if bx < 0 || bx >= g.nbx || by < 0 || by >= g.nby {
				continue
			}
			sum += splatW[dx+1] * splatW[dy+1]
		}
	}
	if sum == 0 {
		return
	}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			bx, by := cx+dx, cy+dy
			if bx < 0 || bx >= g.nbx || by < 0 || by >= g.nby {
				continue
			}
			bins[by*g.nbx+bx] += g.area[i] * splatW[dx+1] * splatW[dy+1] / sum
		}
	}
}

// reduceDensity sums the per-tile grids per bin in fixed tile order,
// refreshes the clamped overflow, and takes the overflow field's
// central differences once per bin.
func (g *analytic) reduceDensity() {
	g.totalOverflow = 0
	for b := range g.overflow {
		d := 0.0
		for t := range g.tiled { // fixed reduction order
			d += g.tiled[t][b]
		}
		ov := d - g.capacity[b]
		if ov < 0 {
			ov = 0
		}
		g.overflow[b] = ov
		g.totalOverflow += ov
	}
	for by := 0; by < g.nby; by++ {
		row := g.overflow[by*g.nbx:][:g.nbx]
		up := g.overflow[min(by+1, g.nby-1)*g.nbx:][:g.nbx]
		down := g.overflow[max(by-1, 0)*g.nbx:][:g.nbx]
		for bx := range row {
			b := by*g.nbx + bx
			g.slopeX[b] = (row[min(bx+1, g.nbx-1)] - row[max(bx-1, 0)]) / (2 * g.binW)
			g.slopeY[b] = (up[bx] - down[bx]) / (2 * g.binH)
		}
	}
}

// smoothAbsAlpha is the HPWL smoothing radius in tiles: below one tile
// of separation the attraction fades linearly instead of staying at
// full weight, so coincident endpoints have zero (not undefined)
// gradient.
const smoothAbsAlpha = 1.0

// descend runs the fixed-schedule batched gradient descent, one loop on
// the calling goroutine. Each iteration takes the wirelength gradient
// net by net, adds the density gradient and reduces the norm instance
// by instance, then moves every instance and resplats the density
// field. rec/parent carry the per-phase obs spans; recording never
// feeds the arithmetic.
func (g *analytic) descend(rec *obs.Recorder, parent *obs.Span) {
	iters := gdIters(g.cfg)
	g.iters = iters
	W, H := float64(g.p.Dev.NumCols()), float64(g.p.Dev.Rows)
	// Step size: start at a few tiles, decay geometrically to ~1/10th
	// of a tile by the final iteration.
	lr := math.Max(W, H) / 40
	lrCool := math.Pow(0.1/math.Max(lr, 0.2), 1/float64(iters))
	// Density weight ramps quadratically: early iterations are pure
	// wirelength (find the basin), late ones mostly spreading.
	const lambdaMax = 4.0

	sp := obs.StartChild(rec, parent, "stitch.analytic",
		obs.Int("iterations", iters), obs.Int("instances", len(g.px)))
	sampleEvery := iters / 8
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	g.splatAll()
	for it := 0; it < iters; it++ {
		ramp := float64(it+1) / float64(iters)
		lambda := lambdaMax * ramp * ramp
		// Smoothed-HPWL attraction: d/dx of w*sqrt(dx^2+a^2) is
		// w*dx/sqrt(dx^2+a^2), once per net, added to one endpoint and
		// subtracted from the other (the force is odd in dx, and IEEE
		// arithmetic is sign-symmetric). Walking nets in index order,
		// then anchors, sums each instance's forces in netsOf order.
		clear(g.gx)
		clear(g.gy)
		for ni := range g.p.Nets {
			nt := &g.p.Nets[ni]
			if nt.From == nt.To {
				continue // self-loop: no gradient
			}
			dx, dy := g.px[nt.From]-g.px[nt.To], g.py[nt.From]-g.py[nt.To]
			fx := nt.Weight * dx / math.Sqrt(dx*dx+smoothAbsAlpha)
			fy := nt.Weight * dy / math.Sqrt(dy*dy+smoothAbsAlpha)
			g.gx[nt.From] += fx
			g.gy[nt.From] += fy
			g.gx[nt.To] -= fx
			g.gy[nt.To] -= fy
		}
		// Anchors: the same attraction toward a fixed point.
		for ai := range g.p.Anchors {
			an := &g.p.Anchors[ai]
			dx, dy := g.px[an.Inst]-an.X, g.py[an.Inst]-an.Y
			g.gx[an.Inst] += an.Weight * dx / math.Sqrt(dx*dx+smoothAbsAlpha)
			g.gy[an.Inst] += an.Weight * dy / math.Sqrt(dy*dy+smoothAbsAlpha)
		}
		// Density repulsion: descend the overflow field's slope at the
		// instance's bin, scaled by the instance area so big blocks
		// flee congestion faster. The norm sums per tile, then over
		// tiles in order; the max is exact in any order.
		g.gradNorm = 0
		maxG := 0.0
		for t := 0; t < analyticTiles; t++ {
			norm := 0.0
			for i := g.tileLo[t]; i < g.tileLo[t+1]; i++ {
				gx, gy := g.gx[i], g.gy[i]
				if g.area[i] > 0 {
					gx += lambda * g.area[i] * g.slopeX[g.atX[i]] / g.binH / g.binW
					gy += lambda * g.area[i] * g.slopeY[g.atY[i]] / g.binH / g.binW
					g.gx[i], g.gy[i] = gx, gy
				}
				ax, ay := math.Abs(gx), math.Abs(gy)
				norm += ax + ay
				if ax > maxG {
					maxG = ax
				}
				if ay > maxG {
					maxG = ay
				}
			}
			g.gradNorm += norm
		}
		// Sampled before the update, while totalOverflow still
		// describes the field this iteration's gradient was taken on;
		// without a recorder the samples' attributes are never built.
		if rec != nil && (it%sampleEvery == 0 || it == iters-1) {
			isp := sp.Child("stitch.analytic.iter", obs.Int("iter", it),
				obs.Float("grad_norm", g.gradNorm),
				obs.Float("overflow", g.totalOverflow))
			isp.End()
			// Live convergence gauges: a service scraping mid-run sees
			// the descent's current state, not just its final values —
			// grad_norm refusing to fall or overflow plateauing is
			// diagnosable without waiting for the job to finish.
			rec.SetGauge("stitch.analytic.grad_norm", g.gradNorm)
			rec.SetGauge("stitch.analytic.overflow", g.totalOverflow)
		}
		// Normalized update: the step length is lr tiles for the
		// strongest-pulled instance, proportionally less for the rest.
		// With a zero gradient nothing moves and the density field
		// stands. The last iteration's positions are never splatted:
		// the descent ends reporting the field its last gradient saw.
		if maxG > 0 {
			scale := lr / maxG
			for i := range g.px {
				x := g.px[i] - scale*g.gx[i]
				y := g.py[i] - scale*g.gy[i]
				// Clamp centers so the block body stays on-device.
				if min := g.bw[i] / 2; x < min {
					x = min
				}
				if max := W - g.bw[i]/2; x > max {
					x = max
				}
				if min := g.bh[i] / 2; y < min {
					y = min
				}
				if max := H - g.bh[i]/2; y > max {
					y = max
				}
				g.px[i], g.py[i] = x, y
			}
			if it < iters-1 {
				g.splatAll()
			}
		}
		lr *= lrCool
	}
	rec.Add("stitch.analytic.iters", int64(iters))
	rec.SetGauge("stitch.analytic.grad_norm", g.gradNorm)
	rec.SetGauge("stitch.analytic.overflow", g.totalOverflow)
	sp.Set(obs.Float("grad_norm", g.gradNorm), obs.Float("overflow", g.totalOverflow))
	sp.End()
}

// legalize snaps the continuous positions onto legal origins inside the
// annealer's occupancy bitmaps: instances place area-descending (the
// greedyInit order), each at the legal column-compatible origin nearest
// its continuous position, falling back to first fit when nothing near
// fits. Returns (fallbacks, unplaced).
func (g *analytic) legalize(a *annealer, rec *obs.Recorder, parent *obs.Span) (int, int) {
	sp := obs.StartChild(rec, parent, "stitch.legalize",
		obs.Int("instances", len(g.px)))
	fallbacks, unplaced := 0, 0
	for _, ii := range g.pr.order {
		bidx := g.p.Instances[ii].Block
		b := &g.p.Blocks[bidx]
		ox := int(math.Round(g.px[ii] - g.bw[ii]/2))
		oy := int(math.Round(g.py[ii] - g.bh[ii]/2))
		ok, x, y := a.snapToLegal(bidx, ox, oy)
		if !ok {
			// Nothing near the analytic position: first fit, exactly
			// the greedy construction's move of last resort.
			fallbacks++
			ok, x, y = a.firstFit(bidx)
		}
		if !ok {
			unplaced++
			continue
		}
		a.setOrigin(ii, Origin{X: x, Y: y, Placed: true})
		a.mark(b, x, y, true)
	}
	rec.Add("stitch.legalize.fallbacks", int64(fallbacks))
	sp.Set(obs.Int("fallbacks", fallbacks), obs.Int("unplaced", unplaced))
	sp.End()
	return fallbacks, unplaced
}

// snapToLegal finds the legal origin of block bidx nearest (ox, oy) in
// Manhattan distance: column candidates expand outward through the
// compatible-origins list, rows outward from oy, pruned once a column's
// horizontal offset alone exceeds the best distance found. Ties prefer
// the smaller column offset, then the lower row.
func (a *annealer) snapToLegal(bidx, ox, oy int) (bool, int, int) {
	xs := a.pr.originsX[bidx]
	maxY := a.p.Dev.Rows - a.p.Blocks[bidx].Height
	if len(xs) == 0 || maxY < 0 {
		return false, 0, 0
	}
	cy := oy
	if cy < 0 {
		cy = 0
	}
	if cy > maxY {
		cy = maxY
	}
	bestDist := math.MaxInt64
	bestX, bestY := 0, 0
	// Two-pointer outward sweep over the sorted compatible columns,
	// starting at the insertion point of ox.
	r := sort.SearchInts(xs, ox)
	l := r - 1
	for l >= 0 || r < len(xs) {
		var x int
		switch {
		case l < 0:
			x, r = xs[r], r+1
		case r >= len(xs):
			x, l = xs[l], l-1
		case ox-xs[l] < xs[r]-ox: // tie goes right: smaller |dx| wins, then smaller x
			x, l = xs[l], l-1
		default:
			x, r = xs[r], r+1
		}
		dx := x - ox
		if dx < 0 {
			dx = -dx
		}
		if dx >= bestDist {
			break // every remaining column is at least this far
		}
		budget := bestDist - dx - 1 // must beat the incumbent
		// Rows outward from cy, the lower one first at equal distance:
		// the nearest legal row of the column, if it is within budget.
		if y, ok := nearestSetBit(a.legalRows(bidx, x), cy); ok {
			dy := y - cy
			if dy < 0 {
				dy = -dy
			}
			if dy <= budget {
				bestDist, bestX, bestY = dx+dy, x, y
			}
		}
	}
	if bestDist == math.MaxInt64 {
		return false, 0, 0
	}
	return true, bestX, bestY
}

// analyticSeed runs the full analytic pass — descent plus legalization —
// into annealer a. It is the greedyInit replacement of the hybrid and
// analytic backends.
func analyticSeed(p *Problem, pr *prep, cfg Config, a *annealer, rec *obs.Recorder, parent *obs.Span) {
	g := newAnalytic(p, pr, cfg)
	g.descend(rec, parent)
	g.legalize(a, rec, parent)
}

// runAnalytic is the pure-analytic backend: descend, legalize, report —
// no annealing moves at all. The Result honors every annealer contract
// (final trace sample pinned at the total cost, fragmentation metrics,
// one ChainStats entry) so downstream consumers cannot tell the
// backends apart structurally.
func runAnalytic(p *Problem, pr *prep, cfg Config) *Result {
	rec := cfg.Obs
	runSp := obs.StartChild(rec, cfg.Span, "stitch.chains",
		obs.String("backend", string(BackendAnalytic)),
		obs.Int("chains", 1), obs.Int("iterations", 0))
	a := newAnnealer(p, pr, cfg, cfg.Seed+11)
	analyticSeed(p, pr, cfg, a, rec, runSp)
	a.initCostState()
	c := &chain{a: a, idx: 0, budget: 0, every: cfg.TraceEvery}
	c.trace = append(c.trace, CostSample{Iter: 0, Cost: costOf(a.cost)})
	finals := []int64{c.finish()}
	res := buildResult([]*chain{c}, 0, finals, 0)
	res.TraceEvery = cfg.TraceEvery
	res.GDIters = gdIters(cfg)
	runSp.Set(obs.Float("final_cost", res.FinalCost))
	runSp.End()
	return res
}

// gdIters resolves the validated gradient-descent budget.
func gdIters(cfg Config) int {
	if cfg.GDIterations > 0 {
		return cfg.GDIterations
	}
	return 256
}
