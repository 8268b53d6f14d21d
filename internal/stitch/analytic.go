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
// alone. The only randomness is the seeded initial scatter; the gradient
// loop is goroutine-tiled over a FIXED tile count (analyticTiles, never
// GOMAXPROCS), each tile writes only its own instance range, and the
// per-tile density partials are reduced in tile order — so the floating
// point arithmetic happens in the same order on any machine.
package stitch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"macroflow/internal/obs"
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

// analyticTiles is the fixed goroutine-tile count of the batched update
// loops. It deliberately ignores GOMAXPROCS: the tile boundaries decide
// the floating-point reduction order of the density partials, so they
// must be a constant for the descent to be bit-reproducible everywhere.
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
	// density is the Gaussian-splatted occupied area per bin; capacity
	// the placeable tile area; overflow the clamped excess.
	density, capacity, overflow []float64
	// tiled holds one private density accumulator per goroutine tile,
	// reduced into density in fixed tile order.
	tiled [analyticTiles][]float64
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
	}
	W, H := float64(p.Dev.NumCols()), float64(p.Dev.Rows)
	rng := rand.New(rand.NewSource(cfg.Seed + analyticSeedStride))
	for i := range p.Instances {
		b := &p.Blocks[p.Instances[i].Block]
		g.bw[i] = float64(b.Width)
		g.bh[i] = float64(b.Height)
		g.area[i] = float64(b.Area())
		g.px[i] = W/2 + (rng.Float64()-0.5)*W/2
		g.py[i] = H/2 + (rng.Float64()-0.5)*H/2
	}
	// Bin the device at roughly clock-region-fifth granularity: wide
	// enough that a mid-sized block spans a few bins, fine enough that
	// the overflow gradient has somewhere to point.
	g.binW, g.binH = 4, 10
	g.nbx = int(math.Ceil(W / g.binW))
	g.nby = int(math.Ceil(H / g.binH))
	nb := g.nbx * g.nby
	g.density = make([]float64, nb)
	g.capacity = make([]float64, nb)
	g.overflow = make([]float64, nb)
	for t := range g.tiled {
		g.tiled[t] = make([]float64, nb)
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

// forTiles runs fn over the fixed instance tiling, one goroutine per
// tile. Tiles own disjoint instance ranges, so fn may write any
// per-instance slice without synchronization.
func (g *analytic) forTiles(fn func(tile, lo, hi int)) {
	n := len(g.px)
	var wg sync.WaitGroup
	for t := 0; t < analyticTiles; t++ {
		lo, hi := t*n/analyticTiles, (t+1)*n/analyticTiles
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(t, lo, hi int) {
			defer wg.Done()
			fn(t, lo, hi)
		}(t, lo, hi)
	}
	wg.Wait()
}

// gaussian splat kernel over the 3x3 bin neighbourhood, sigma one bin.
var splatW = [3]float64{math.Exp(-0.5), 1, math.Exp(-0.5)}

// splatTile rebuilds tile t's private density grid from the current
// positions of its instances lo..hi-1.
func (g *analytic) splatTile(t, lo, hi int) {
	bins := g.tiled[t]
	for i := range bins {
		bins[i] = 0
	}
	for i := lo; i < hi; i++ {
		if g.area[i] == 0 {
			continue
		}
		cx := int(g.px[i] / g.binW)
		cy := int(g.py[i] / g.binH)
		if cx >= 1 && cx < g.nbx-1 && cy >= 1 && cy < g.nby-1 {
			// Interior center bin: all nine neighbours exist, so the
			// normalizing sum is the constant the table was built with.
			w := g.splat[9*g.p.Instances[i].Block:][:9]
			for r := 0; r < 3; r++ {
				row := bins[(cy+r-1)*g.nbx+cx-1:][:3]
				row[0] += w[3*r]
				row[1] += w[3*r+1]
				row[2] += w[3*r+2]
			}
			continue
		}
		// Normalized 3x3 Gaussian splat centered on the bin under
		// the instance center, clipped at the grid edge.
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
			continue
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
}

// reduceDensity folds the per-tile grids into the density field in
// fixed tile order and refreshes the clamped overflow.
func (g *analytic) reduceDensity() {
	for i := range g.density {
		g.density[i] = 0
	}
	for t := 0; t < analyticTiles; t++ { // fixed reduction order
		bins := g.tiled[t]
		for i := range g.density {
			g.density[i] += bins[i]
		}
	}
	g.totalOverflow = 0
	for i := range g.density {
		ov := g.density[i] - g.capacity[i]
		if ov < 0 {
			ov = 0
		}
		g.overflow[i] = ov
		g.totalOverflow += ov
	}
}

// ovfAt reads the overflow field with clamped indices.
func (g *analytic) ovfAt(bx, by int) float64 {
	if bx < 0 {
		bx = 0
	}
	if bx >= g.nbx {
		bx = g.nbx - 1
	}
	if by < 0 {
		by = 0
	}
	if by >= g.nby {
		by = g.nby - 1
	}
	return g.overflow[by*g.nbx+bx]
}

// smoothAbsAlpha is the HPWL smoothing radius in tiles: below one tile
// of separation the attraction fades linearly instead of staying at
// full weight, so coincident endpoints have zero (not undefined)
// gradient.
const smoothAbsAlpha = 1.0

// descend runs the fixed-schedule batched gradient descent. Each
// iteration is two tile passes: wirelength + density gradients against
// the current density field, then the position update fused with the
// next iteration's density splat (a tile splats only the instances it
// just moved, so no barrier is needed between the two). rec/parent
// carry the per-phase obs spans; recording never feeds the arithmetic.
func (g *analytic) descend(rec *obs.Recorder, parent *obs.Span) {
	iters := g.cfg.GDIterations
	if iters <= 0 {
		iters = 256
	}
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
	g.forTiles(g.splatTile)
	g.reduceDensity()
	for it := 0; it < iters; it++ {
		ramp := float64(it+1) / float64(iters)
		lambda := lambdaMax * ramp * ramp
		var tileNorm [analyticTiles]float64
		g.forTiles(func(t, lo, hi int) {
			norm := 0.0
			for i := lo; i < hi; i++ {
				gx, gy := 0.0, 0.0
				// Smoothed-HPWL attraction along every incident net:
				// d/dx of w*sqrt(dx^2+a^2) = w*dx/sqrt(dx^2+a^2).
				// Virtual indices >= len(Nets) are anchors: the same
				// attraction toward a fixed point instead of a peer.
				for _, ni := range g.pr.netsOf[i] {
					if ni >= len(g.p.Nets) {
						an := &g.p.Anchors[ni-len(g.p.Nets)]
						dx, dy := g.px[i]-an.X, g.py[i]-an.Y
						gx += an.Weight * dx / math.Sqrt(dx*dx+smoothAbsAlpha)
						gy += an.Weight * dy / math.Sqrt(dy*dy+smoothAbsAlpha)
						continue
					}
					n := &g.p.Nets[ni]
					o := n.To
					if o == i {
						o = n.From
					}
					if o == i {
						continue // self-loop: no gradient
					}
					dx, dy := g.px[i]-g.px[o], g.py[i]-g.py[o]
					gx += n.Weight * dx / math.Sqrt(dx*dx+smoothAbsAlpha)
					gy += n.Weight * dy / math.Sqrt(dy*dy+smoothAbsAlpha)
				}
				// Density repulsion: descend the overflow field via
				// central differences, scaled by the instance area so
				// big blocks flee congestion faster.
				if g.area[i] > 0 {
					bx := int(g.px[i] / g.binW)
					by := int(g.py[i] / g.binH)
					dox := (g.ovfAt(bx+1, by) - g.ovfAt(bx-1, by)) / (2 * g.binW)
					doy := (g.ovfAt(bx, by+1) - g.ovfAt(bx, by-1)) / (2 * g.binH)
					gx += lambda * g.area[i] * dox / g.binH / g.binW
					gy += lambda * g.area[i] * doy / g.binH / g.binW
				}
				g.gx[i], g.gy[i] = gx, gy
				norm += math.Abs(gx) + math.Abs(gy)
			}
			tileNorm[t] = norm
		})
		g.gradNorm = 0
		for t := 0; t < analyticTiles; t++ { // fixed reduction order
			g.gradNorm += tileNorm[t]
		}
		// Sampled before the update pass, while totalOverflow still
		// describes the field this iteration's gradient was taken on.
		if it%sampleEvery == 0 || it == iters-1 {
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
		maxG := 0.0
		for i := range g.gx {
			if a := math.Abs(g.gx[i]); a > maxG {
				maxG = a
			}
			if a := math.Abs(g.gy[i]); a > maxG {
				maxG = a
			}
		}
		// With a zero gradient nothing moves and the density field
		// stands. The last iteration's positions are never splatted:
		// the descent ends reporting the field its last gradient saw.
		if maxG > 0 {
			scale := lr / maxG
			resplat := it < iters-1
			g.forTiles(func(t, lo, hi int) {
				for i := lo; i < hi; i++ {
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
				if resplat {
					g.splatTile(t, lo, hi)
				}
			})
			if resplat {
				g.reduceDensity()
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
	c.trace = append(c.trace, CostSample{Iter: 0, Cost: a.cost})
	finals := []float64{c.finish()}
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
