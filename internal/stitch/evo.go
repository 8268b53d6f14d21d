// Evolutionary stitcher backend: a (μ+λ) evolution strategy whose
// genome IS the placement vector (the annealer's origins array). Each
// generation draws λ offspring from the μ survivors: crossover adopts a
// coherent rectangular window of the donor parent's placement into a
// clone of the receiver — followed by snap-to-legal repair through the
// occupancy bitmaps — and mutation is a short burst of the annealer's
// own move set at a generation-cooled temperature. Selection is elitist
// (μ+λ): parents and offspring compete together on total cost.
//
// Determinism contract: the result is bit-reproducible from
// (Seed, Mu, Lambda, Generations, Iterations) regardless of GOMAXPROCS.
// All random choices that shape an offspring — parent indices, the
// crossover window, the mutation rng seed — are drawn serially from a
// master rng (or derived arithmetically from (Seed, generation, index))
// BEFORE the offspring are evaluated; the evaluation itself runs one
// goroutine per child over disjoint state, and the barrier reduces the
// children in index order, so no floating-point operation ever depends
// on goroutine scheduling.
package stitch

import (
	"math"
	"math/rand"
	"sync"

	"macroflow/internal/obs"
)

// BackendEvo is the (μ+λ) evolutionary placer.
const BackendEvo Backend = "evo"

// Default EA shape: a small elitist population — the genome is large
// (one origin per instance), so the budget buys more as mutation moves
// than as population breadth.
const (
	evoDefaultMu          = 4
	evoDefaultLambda      = 8
	evoDefaultGenerations = 16
)

// Seed strides separating the evolutionary rng streams from the chain
// streams (chainSeedStride) and from each other.
const (
	// evoMasterStride offsets the master rng that draws parent pairs
	// and crossover windows.
	evoMasterStride = 409
	// evoGenStride/evoIdxStride derive the per-offspring mutation seed
	// from (Seed, generation, index) — two distinct primes so no two
	// (generation, index) pairs collide within any realistic run.
	evoGenStride = 104729
	evoIdxStride = 1299709
)

// evoParams resolves the validated (μ, λ, generations) triple.
func evoParams(cfg Config) (mu, lambda, gens int) {
	mu, lambda, gens = cfg.Mu, cfg.Lambda, cfg.Generations
	if mu < 1 {
		mu = evoDefaultMu
	}
	if lambda < 1 {
		lambda = evoDefaultLambda
	}
	if gens < 1 {
		gens = evoDefaultGenerations
	}
	return mu, lambda, gens
}

// childSeed derives the mutation rng seed of one offspring.
func childSeed(seed int64, gen, idx int) int64 {
	return seed + 11 + evoGenStride*int64(gen+1) + evoIdxStride*int64(idx+1)
}

// childPlan is the serially-drawn recipe of one offspring: everything
// random about the child is fixed here, before any goroutine starts.
type childPlan struct {
	seed         int64
	p1, p2       int // parent indices into the population
	x0, y0, w, h int // crossover window (device tile coordinates)
}

// adoptWindow is the crossover operator: every instance whose donor
// placement centers inside the window moves to the donor's position —
// verbatim when it fits, else snapped to the nearest legal origin, else
// restored to its old position (or left unplaced when it had none).
// A first-fit repair pass then re-places anything still unplaced, and
// the cost caches are rebuilt from scratch.
func (a *annealer) adoptWindow(donor *annealer, x0, y0, w, h int) {
	for ii := range a.origins {
		od := donor.origins[ii]
		if !od.Placed {
			continue
		}
		bidx := a.p.Instances[ii].Block
		b := &a.p.Blocks[bidx]
		cx := od.X + b.Width/2
		cy := od.Y + b.Height/2
		if cx < x0 || cx >= x0+w || cy < y0 || cy >= y0+h {
			continue
		}
		old := a.origins[ii]
		if old.Placed && old.X == od.X && old.Y == od.Y {
			continue // already at the donor position
		}
		if old.Placed {
			a.mark(b, old.X, old.Y, false)
		}
		if a.fits(bidx, od.X, od.Y) {
			a.setOrigin(ii, Origin{X: od.X, Y: od.Y, Placed: true})
			a.mark(b, od.X, od.Y, true)
			continue
		}
		if ok, x, y := a.snapToLegal(bidx, od.X, od.Y); ok {
			a.setOrigin(ii, Origin{X: x, Y: y, Placed: true})
			a.mark(b, x, y, true)
			continue
		}
		if old.Placed {
			// The vacated spot is still free: keep the old position.
			a.mark(b, old.X, old.Y, true)
		}
	}
	// Repair: first-fit anything unplaced (inherited holes included).
	for ii := range a.origins {
		if a.origins[ii].Placed {
			continue
		}
		bidx := a.p.Instances[ii].Block
		if ok, x, y := a.firstFit(bidx); ok {
			a.setOrigin(ii, Origin{X: x, Y: y, Placed: true})
			a.mark(&a.p.Blocks[bidx], x, y, true)
		}
	}
	a.refreshNetCosts()
	a.cost = a.totalCost()
}

// runEvo drives the (μ+λ) evolution strategy. The total SA-move budget
// (Config.Iterations) is divided evenly across the offspring:
// Iterations/(Generations·Lambda) mutation moves per child.
func runEvo(p *Problem, pr *prep, cfg Config) *Result {
	mu, lambda, gens := evoParams(cfg)
	rec := cfg.Obs
	runSp := obs.StartChild(rec, cfg.Span, "stitch.evo",
		obs.String("backend", string(BackendEvo)),
		obs.Int("mu", mu), obs.Int("lambda", lambda),
		obs.Int("generations", gens), obs.Int("iterations", cfg.Iterations))

	movesPerChild := cfg.Iterations / (gens * lambda)
	if movesPerChild < 1 {
		movesPerChild = 1
	}
	cooling := math.Pow(0.001, 1.0/float64(movesPerChild)) // end at 0.1% of T0

	// The founder is the deterministic greedy construction — the same
	// state every annealing chain starts from. The initial population is
	// μ references to it: parents are read-only, so sharing is safe, and
	// diversity comes from the per-child mutation streams of gen 0.
	founder := newAnnealer(p, pr, cfg, cfg.Seed+11)
	founder.greedyInit()
	founder.initCostState()
	pop := make([]*annealer, mu)
	for i := range pop {
		pop[i] = founder
	}

	W, H := p.Dev.NumCols(), p.Dev.Rows
	master := rand.New(rand.NewSource(cfg.Seed + evoMasterStride))
	trace := make([]CostSample, 0, gens+2)
	trace = append(trace, CostSample{Iter: 0, Cost: founder.cost})

	var totMoves, totAccepts, totIllegal int
	executed := 0
	plans := make([]childPlan, lambda)
	children := make([]*annealer, lambda)
	for g := 0; g < gens; g++ {
		gsp := runSp.Child("stitch.evo.gen", obs.Int("gen", g))
		// Serial draw phase: parents and windows for every child, in
		// index order, from the master rng.
		for li := range plans {
			wq, hq := W/4, H/4
			if wq < 1 {
				wq = 1
			}
			if hq < 1 {
				hq = 1
			}
			w := wq + master.Intn(wq+1)
			h := hq + master.Intn(hq+1)
			if w > W {
				w = W
			}
			if h > H {
				h = H
			}
			plans[li] = childPlan{
				seed: childSeed(cfg.Seed, g, li),
				p1:   master.Intn(mu),
				p2:   master.Intn(mu),
				x0:   master.Intn(W - w + 1),
				y0:   master.Intn(H - h + 1),
				w:    w,
				h:    h,
			}
		}
		// Later generations mutate colder: exploration up front,
		// exploitation at the end — the EA analogue of the annealing
		// schedule, deterministic in g alone.
		tempScale := math.Pow(0.01, float64(g)/float64(gens))
		// Parallel evaluation: each goroutine owns exactly one child and
		// reads only frozen parent state; the barrier below restores a
		// fixed order.
		var wg sync.WaitGroup
		for li := 0; li < lambda; li++ {
			wg.Add(1)
			go func(li int, plan childPlan) {
				defer wg.Done()
				child := newAnnealer(p, pr, cfg, plan.seed)
				child.cloneStateFrom(pop[plan.p1])
				child.adoptWindow(pop[plan.p2], plan.x0, plan.y0, plan.w, plan.h)
				t := child.cost * cfg.InitTemp * tempScale
				if t <= 0 {
					t = 1
				}
				for m := 0; m < movesPerChild; m++ {
					child.tryMove(t)
					t *= cooling
				}
				if cfg.CheckIncremental {
					child.checkIncremental(g*lambda + li)
				}
				children[li] = child
			}(li, plans[li])
		}
		wg.Wait()
		executed += lambda * movesPerChild
		// Ordered reduction: telemetry and selection both walk the
		// children in index order.
		for _, child := range children {
			totMoves += child.moves
			totAccepts += child.accepts
			totIllegal += child.illegal
		}
		// (μ+λ) elitist selection: survivors first, then children in
		// index order; the stable sort keeps that order on cost ties.
		candidates := make([]*annealer, 0, mu+lambda)
		candidates = append(candidates, pop...)
		candidates = append(candidates, children...)
		stableSortByCost(candidates)
		copy(pop, candidates[:mu])

		trace = append(trace, CostSample{Iter: executed, Cost: pop[0].cost})
		if cfg.Progress != nil {
			cfg.Progress(0, executed, pop[0].cost)
		}
		gsp.Set(obs.Float("best", pop[0].cost), obs.Int("moves", lambda*movesPerChild))
		gsp.End()
	}

	rec.Add("stitch.moves", int64(totMoves))
	rec.Add("stitch.accepts", int64(totAccepts))
	rec.Add("stitch.illegal_moves", int64(totIllegal))
	if totMoves > 0 {
		rec.SetGauge("stitch.accept_rate", float64(totAccepts)/float64(totMoves))
	}
	rec.Add("stitch.evo.generations", int64(gens))

	// The champion reports the whole run's move telemetry: the losers'
	// moves were spent on this result just as a losing chain's were.
	champion := pop[0]
	champion.moves = totMoves
	champion.accepts = totAccepts
	champion.illegal = totIllegal
	c := &chain{
		a:        champion,
		idx:      0,
		budget:   executed,
		initTemp: founder.cost * cfg.InitTemp,
		every:    cfg.TraceEvery,
		trace:    trace,
	}
	finals := []float64{c.finish()}
	res := buildResult([]*chain{c}, 0, finals, 0)
	res.TraceEvery = cfg.TraceEvery
	runSp.Set(obs.Float("final_cost", res.FinalCost))
	runSp.End()
	return res
}

// stableSortByCost orders annealers by running total cost, preserving
// the incoming order on exact ties (insertion sort: the slices are μ+λ
// long, and stability is part of the determinism contract).
func stableSortByCost(as []*annealer) {
	for i := 1; i < len(as); i++ {
		for j := i; j > 0 && as[j].cost < as[j-1].cost; j-- {
			as[j], as[j-1] = as[j-1], as[j]
		}
	}
}
