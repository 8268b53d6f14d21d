package stitch

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"macroflow/internal/obs"
)

// chainSeedStride separates the rng streams of the chains. Chain 0 uses
// Seed+11 — the historical serial stream — so a single-chain run replays
// the exact trajectory of the pre-chain annealer.
const chainSeedStride = 7919

// coldShareNum/coldShareDen is the fraction of the total move budget the
// coldest chain receives in a multi-chain run; the remainder is split
// evenly across the hot scout replicas.
const (
	coldShareNum = 11
	coldShareDen = 20
)

// ladderRatio is the temperature multiplier between adjacent chains. The
// ladder is anchored at the top: chain k-1 runs at the historical
// exploratory temperature InitTemp·cost, and each colder chain divides
// by ladderRatio, so chain 0 refines near-greedily.
const ladderRatio = 3.0

// chain is one annealing replica plus its schedule state.
type chain struct {
	a   *annealer
	idx int
	// it is the next iteration index to execute; budget the per-chain
	// move allowance, which every chain runs to the end.
	it, budget int
	temp       float64
	initTemp   float64
	cooling    float64

	// every is the validated cost-trace sampling interval
	// (Config.TraceEvery after defaulting).
	every int

	trace     []CostSample
	exchanges int
}

// runSegment advances the chain by up to n moves. It is the historical
// serial loop body verbatim — move, cool, sample — so a single
// full-budget segment is bit-identical to the pre-chain annealer.
// progress is nil except on the serial path (chains report progress at
// the exchange barriers instead, from the calling goroutine).
func (c *chain) runSegment(n int, progress func(chain, iter int, cost float64)) {
	a := c.a
	for ; n > 0 && c.it < c.budget; n-- {
		it := c.it
		a.tryMove(c.temp)
		c.temp *= c.cooling
		if it%c.every == 0 {
			c.trace = append(c.trace, CostSample{Iter: it, Cost: a.cost})
			if progress != nil {
				progress(c.idx, it, a.cost)
			}
		}
		if a.cfg.CheckIncremental && it%1024 == 0 {
			a.checkIncremental(it)
		}
		c.it = it + 1
	}
}

// finish runs the final greedy attempt for anything still unplaced and
// returns the chain's final total cost (penalties included).
func (c *chain) finish() float64 {
	a := c.a
	replaced := false
	for ii := range a.origins {
		if a.origins[ii].Placed {
			continue
		}
		bidx := a.p.Instances[ii].Block
		if ok, x, y := a.firstFit(bidx); ok {
			a.setOrigin(ii, Origin{X: x, Y: y, Placed: true})
			a.mark(&a.p.Blocks[bidx], x, y, true)
			a.cost = a.totalCost()
			replaced = true
		}
	}
	if replaced {
		a.refreshNetCosts()
	}
	return a.totalCost()
}

// runChains drives K annealing replicas (K = 1 reproduces the serial
// annealer bit-for-bit). Chains anneal independently between fixed
// exchange barriers; at each barrier adjacent ladder neighbours swap
// states under the standard parallel-tempering Metropolis criterion,
// driven by a dedicated rng — so the result depends only on (Seed,
// Chains), never on GOMAXPROCS or goroutine scheduling.
// chainLaneBase offsets chain rendering lanes well above the block
// implementation worker lanes, so the two phases never share a lane on
// a trace timeline.
const chainLaneBase = 1000

func runChains(p *Problem, pr *prep, cfg Config) *Result {
	k := cfg.Chains
	if k < 1 {
		k = 1
	}
	if cfg.TraceEvery < 1 {
		cfg.TraceEvery = 256 // Run validates; direct callers get the default
	}
	backend := BackendAnneal
	if cfg.Backend == BackendHybrid {
		backend = BackendHybrid
	}
	rec := cfg.Obs
	runSp := obs.StartChild(rec, cfg.Span, "stitch.chains",
		obs.String("backend", string(backend)),
		obs.Int("chains", k), obs.Int("iterations", cfg.Iterations))
	perChain := cfg.Iterations / k
	if perChain < 1 {
		perChain = 1
	}
	// The coldest chain does the fine refinement, so it gets the lion's
	// share of the move budget; the hot replicas are scouts that only
	// need enough moves to keep offering alternative basins.
	budgets := make([]int, k)
	budgets[0] = perChain
	if k > 1 {
		budgets[0] = cfg.Iterations * coldShareNum / coldShareDen
		rest := (cfg.Iterations - budgets[0]) / (k - 1)
		if rest < 1 {
			rest = 1
		}
		for ci := 1; ci < k; ci++ {
			budgets[ci] = rest
		}
	}

	// Hybrid runs track the best state seen at any barrier (including
	// the analytic seed itself): annealing at temperature can wander
	// uphill and stay there, and a backend whose whole point is a good
	// seed must never return worse than that seed. Pure observation —
	// no rng draws — so the anneal path stays byte-identical.
	var bestSnap *annealer
	bestCost := math.Inf(1)
	snapBest := func(src *annealer) {
		if backend != BackendHybrid || src.cost >= bestCost {
			return
		}
		bestCost = src.cost
		if bestSnap == nil {
			bestSnap = newAnnealer(p, pr, cfg, cfg.Seed)
		}
		bestSnap.cloneStateFrom(src)
	}

	chains := make([]*chain, k)
	chainSpans := make([]*obs.Span, k)
	for ci := range chains {
		a := newAnnealer(p, pr, cfg, cfg.Seed+11+chainSeedStride*int64(ci))
		if ci == 0 {
			if cfg.Backend == BackendHybrid {
				// Hybrid: the analytic global placement replaces the
				// greedy construction, so every chain starts from a
				// wirelength-optimized seed and the move budget is
				// spent refining, not discovering.
				analyticSeed(p, pr, cfg, a, rec, runSp)
			} else {
				a.greedyInit()
			}
			a.initCostState()
			snapBest(a)
		} else {
			// The greedy start is deterministic, so every replica begins
			// from chain 0's state — cloned, not recomputed.
			a.cloneStateFrom(chains[0].a)
		}
		// The ladder spans from the historical exploratory temperature
		// (hottest chain, c = k-1) down by ladderRatio per rung, so the
		// coldest chain refines near-greedily while the hot replicas keep
		// escaping local minima for it. With k = 1 the anchor reduces to
		// InitTemp — the serial schedule.
		anchor := cfg.InitTemp / math.Pow(ladderRatio, float64(k-1))
		temp := a.cost * anchor * math.Pow(ladderRatio, float64(ci))
		if temp <= 0 {
			temp = 1
		}
		// Chain 0 follows the historical annealing schedule; the hotter
		// replicas hold their ladder temperature constant (classic
		// parallel tempering) and feed improving states down via the
		// exchanges.
		cooling := math.Pow(0.001, 1.0/float64(budgets[ci])) // end at 0.1% of T0
		if ci > 0 {
			cooling = 1
		}
		chains[ci] = &chain{
			a:        a,
			idx:      ci,
			budget:   budgets[ci],
			temp:     temp,
			initTemp: temp,
			cooling:  cooling,
			every:    cfg.TraceEvery,
			// Preallocated to the sampling grid plus the pinned final
			// point, so runSegment's trace appends never reallocate.
			trace: make([]CostSample, 0, budgets[ci]/cfg.TraceEvery+2),
		}
		if rec != nil { // skip the Sprintf, not just the no-op call
			rec.LaneLabel(chainLaneBase+ci, fmt.Sprintf("stitch chain %d", ci))
		}
		chainSpans[ci] = runSp.Child("stitch.chain",
			obs.Int("chain", ci), obs.Int("budget", budgets[ci]),
			obs.Float("t0", temp)).WithLane(chainLaneBase + ci)
	}

	exchanges := 0
	if k == 1 {
		seg := chainSpans[0].Child("stitch.segment")
		chains[0].runSegment(perChain, cfg.Progress)
		seg.End()
		snapBest(chains[0].a)
	} else {
		// Fixed replica-exchange schedule: ExchangeRounds segments with
		// a barrier and an exchange sweep after each but the last.
		rounds := cfg.ExchangeRounds
		for _, b := range budgets {
			if rounds > b {
				rounds = b
			}
		}
		xrng := rand.New(rand.NewSource(cfg.Seed + 101))
		for r := 0; r < rounds; r++ {
			var wg sync.WaitGroup
			for _, c := range chains {
				n := c.budget / rounds
				if r == rounds-1 {
					n = c.budget // budget-bounded; drains the remainder
				}
				wg.Add(1)
				// Segment spans are per chain per round — barrier
				// granularity, so the SA hot loop stays recording-free.
				go func(c *chain, seg *obs.Span, n int) {
					defer wg.Done()
					c.runSegment(n, nil)
					seg.Set(obs.Float("cost", c.a.cost))
					seg.End()
				}(c, chainSpans[c.idx].Child("stitch.segment", obs.Int("round", r)), n)
			}
			wg.Wait()
			for _, c := range chains {
				snapBest(c.a)
			}
			if cfg.Progress != nil {
				for _, c := range chains {
					cfg.Progress(c.idx, c.it, c.a.cost)
				}
			}
			if r == rounds-1 {
				break
			}
			// Exchange sweep over adjacent ladder pairs, alternating
			// parity per round so every neighbour pair participates.
			xsp := runSp.Child("stitch.exchange", obs.Int("round", r))
			attempts, accepted := 0, 0
			for lo := r % 2; lo+1 < k; lo += 2 {
				c1, c2 := chains[lo], chains[lo+1]
				attempts++
				// Metropolis swap: always when the hotter chain holds
				// the better state, else with ladder-scaled probability.
				d := (1/c1.temp - 1/c2.temp) * (c1.a.cost - c2.a.cost)
				if d >= 0 || xrng.Float64() < math.Exp(d) {
					swapState(c1.a, c2.a)
					c1.exchanges++
					c2.exchanges++
					exchanges++
					accepted++
				}
			}
			rec.Add("stitch.exchange_attempts", int64(attempts))
			rec.Add("stitch.exchanges", int64(accepted))
			xsp.Set(obs.Int("attempts", attempts), obs.Int("accepted", accepted))
			xsp.End()
		}
	}

	// Pick the winner on total cost (penalties included), lowest chain
	// index on ties; only the winner gets the final greedy completion
	// pass — the losers' states are discarded anyway.
	finals := make([]float64, k)
	best := 0
	if k == 1 {
		finals[0] = chains[0].finish()
	} else {
		for ci, c := range chains {
			finals[ci] = c.a.cost
			if finals[ci] < finals[best] {
				best = ci
			}
		}
		finals[best] = chains[best].finish()
	}
	if bestSnap != nil && bestCost < finals[best] {
		// The barrier-best beats every chain's end state even after the
		// winner's completion pass: restore it (state only — telemetry
		// stays with the chain) and re-run the completion on it.
		swapState(chains[best].a, bestSnap)
		finals[best] = chains[best].finish()
	}
	var moves, accepts, illegal int64
	for ci, c := range chains {
		moves += int64(c.a.moves)
		accepts += int64(c.a.accepts)
		illegal += int64(c.a.illegal)
		if rec != nil { // skip the Sprintf, not just the no-op call
			rec.Add(fmt.Sprintf("stitch.chain.%d.exchanges", ci), int64(c.exchanges))
		}
		chainSpans[ci].Set(obs.Int("moves", c.a.moves),
			obs.Int("accepts", c.a.accepts), obs.Int("exchanges", c.exchanges),
			obs.Float("cost", finals[ci]))
		chainSpans[ci].End()
	}
	rec.Add("stitch.moves", moves)
	rec.Add("stitch.accepts", accepts)
	rec.Add("stitch.illegal_moves", illegal)
	if moves > 0 {
		rec.SetGauge("stitch.accept_rate", float64(accepts)/float64(moves))
	}
	res := buildResult(chains, best, finals, exchanges)
	res.TraceEvery = cfg.TraceEvery
	if backend == BackendHybrid {
		res.GDIters = gdIters(cfg)
	}
	runSp.Set(obs.Int("winner", best), obs.Float("final_cost", res.FinalCost))
	runSp.End()
	return res
}

// cloneStateFrom copies src's placement state (same problem) into a.
func (a *annealer) cloneStateFrom(src *annealer) {
	copy(a.origins, src.origins)
	copy(a.cx, src.cx)
	copy(a.cy, src.cy)
	a.netCost0 = append(a.netCost0[:0], src.netCost0...)
	copy(a.occ.bits, src.occ.bits)
	a.cost = src.cost
}

// swapState exchanges the annealing states (placement, occupancy, cost
// caches) of two chains, leaving their temperatures and telemetry at
// their ladder positions — configurations migrate across the ladder.
func swapState(a1, a2 *annealer) {
	a1.occ, a2.occ = a2.occ, a1.occ
	a1.origins, a2.origins = a2.origins, a1.origins
	a1.cx, a2.cx = a2.cx, a1.cx
	a1.cy, a2.cy = a2.cy, a1.cy
	a1.netCost0, a2.netCost0 = a2.netCost0, a1.netCost0
	a1.cost, a2.cost = a2.cost, a1.cost
}

// buildResult assembles the Result from the winning chain plus per-chain
// telemetry.
func buildResult(chains []*chain, best int, finals []float64, exchanges int) *Result {
	w := chains[best]
	a := w.a
	res := &Result{Exchanges: exchanges}

	res.Origins = append([]Origin(nil), a.origins...)
	for _, o := range a.origins {
		if o.Placed {
			res.Placed++
		} else {
			res.Unplaced++
		}
	}
	final := finals[best]
	res.FinalCost = final - float64(res.Unplaced)*a.cfg.UnplacedPenalty

	trace := w.trace
	executed := w.budget
	// Always record the final (iteration, cost) point, so reaching the
	// final cost is always observable in the trace even when the run
	// ends off the 256-iteration sampling grid.
	if n := len(trace); n > 0 && trace[n-1].Iter == executed {
		trace[n-1].Cost = final
	} else {
		trace = append(trace, CostSample{Iter: executed, Cost: final})
	}
	res.CostTrace = trace

	res.ConvergenceIter = w.budget
	if len(trace) > 0 {
		initial := trace[0].Cost
		res.InitialCost = initial
		threshold := final + 0.02*(initial-final)
		for _, s := range trace {
			if s.Cost <= threshold {
				res.ConvergenceIter = s.Iter
				break
			}
		}
	}

	for _, c := range chains {
		res.Iterations += c.budget
		res.IllegalMoves += c.a.illegal
		cfinal := finals[c.idx]
		unplaced := 0
		for _, o := range c.a.origins {
			if !o.Placed {
				unplaced++
			}
		}
		res.Chains = append(res.Chains, ChainStats{
			Chain:        c.idx,
			InitTemp:     c.initTemp,
			Moves:        c.a.moves,
			Accepts:      c.a.accepts,
			IllegalMoves: c.a.illegal,
			Exchanges:    c.exchanges,
			FinalCost:    cfinal - float64(unplaced)*c.a.cfg.UnplacedPenalty,
			Trace:        c.trace,
		})
	}
	res.FreeTiles, res.LargestFreeRect = a.fragmentation()
	return res
}
