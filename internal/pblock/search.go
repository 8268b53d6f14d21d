package pblock

import (
	"macroflow/internal/fabric"
	"macroflow/internal/obs"
	"macroflow/internal/place"
	"macroflow/internal/route"
)

// probeOutcome is the memoized oracle verdict for one PBlock rectangle.
type probeOutcome struct {
	noFit    bool // Build failed: the rectangle exceeds the device
	placeOK  bool // detailed placement succeeded
	feasible bool // placement succeeded and the routing probe passed
	err      error
	pl       *place.Placement
	rr       route.Result
}

// escaped reports a verdict outside the place-failure prefix: place-legal,
// or no-fit — by capacity monotonicity no place-legal CF exists above a
// rectangle that exceeds the device.
func (o *probeOutcome) escaped() bool { return o.noFit || o.placeOK }

// prober evaluates grid-CF feasibility with the one layer of reuse the
// linear sweep deliberately forgoes, rectangle memoization: adjacent
// grid CFs frequently round to the same PBlock rectangle, and the
// oracle's verdict is a pure function of the rectangle (placement and
// routing see the rectangle, not the CF that produced it), so each
// distinct rectangle is placed and routed at most once per search.
//
// runs counts oracle executions (each place attempt, with its routing
// probe when placement succeeds); memo hits and failed PBlock builds are
// free. That is the quantity the search minimizes.
type prober struct {
	*serial // the plan, the window, the configuration and the run count
	byRect  map[fabric.Rect]*probeOutcome
	n       int // highest index whose tick is in the window
}

// probe returns the PBlock of the window's index idx and its verdict,
// running the oracle when the rectangle has not been probed yet.
func (p *prober) probe(idx int) (PBlock, *probeOutcome) {
	pb, err := Build(p.dev, p.plan.Shape(), (p.w.start + Tick(idx)*p.w.step).CF(), p.cfg)
	if err != nil {
		return pb, &probeOutcome{noFit: true, err: err}
	}
	o, ok := p.byRect[pb.Rect]
	if !ok {
		o = p.execute(pb.Rect)
		p.byRect[pb.Rect] = o
		p.runs++
	}
	return pb, o
}

// execute runs the place-and-route oracle for one rectangle.
func (p *prober) execute(r fabric.Rect) *probeOutcome {
	p.oracle.Add(1)
	sp := obs.StartChild(p.s.Obs, p.s.Span, "oracle.probe",
		obs.Int("w", r.X1-r.X0+1), obs.Int("h", r.Y1-r.Y0+1))
	psp := sp.Child("place.detail")
	pl, err := p.plan.Place(p.dev, r, p.cfg.Place)
	psp.End()
	if err != nil {
		sp.Set(obs.String("verdict", "place-fail"))
		sp.End()
		return &probeOutcome{err: err}
	}
	rsp := sp.Child("route.probe")
	rr := p.plan.router.Route(pl, p.cfg.Route)
	rsp.End()
	sp.Set(obs.String("verdict", routeVerdict(rr.Feasible)))
	sp.End()
	return &probeOutcome{placeOK: true, feasible: rr.Feasible, pl: pl, rr: rr}
}

func routeVerdict(feasible bool) string {
	if feasible {
		return "feasible"
	}
	return "route-fail"
}

// minCFBisect returns the linear sweep's first feasible grid CF in
// O(log) oracle runs instead of O(range/step). The oracle is not
// monotone in the CF — neither of its verdicts is:
//
//   - The routing probe is a congestion measurement; spreading a
//     placement into a bigger rectangle can worsen congestion before it
//     improves it.
//   - Detailed placement is capacity-driven and so mostly monotone, but
//     the rectangle's aspect flips as the CF grows, and a reshaped
//     rectangle can break carry-chain runs or control-set packing that a
//     smaller one satisfied. On the generated corpus this carves
//     isolated place-legal pockets separated by failure bands up to ~25
//     grid indices wide, clustered just above CF = 1.0 (capacity
//     parity).
//
// The search is therefore structured around what IS reliable: the
// failure prefix below the first place-legal index is solid (pure
// capacity shortfall), and the pockets sit at the capacity crossover.
// It anchors a gallop at the CF = 1.0 pivot, brackets the lowest
// place-legal index it can see, bisects the bracket, re-confirms the
// boundary by walking downward until confirmRects consecutive distinct
// rectangles probed place-infeasible (adopting any lower place-legal
// pocket it passes), and finally scans ascending from that confirmed
// boundary — route verdicts consumed exactly like the linear sweep —
// until the first routable CF.
//
// The returned CF is always feasible and never below the linear
// minimum; it equals the linear minimum unless a place-legal pocket
// hides below the confirmed boundary behind more than confirmRects
// distinct all-infeasible rectangles, which does not occur in the
// generated corpus (TestBisectMatchesLinear) and costs only
// conservatism, never infeasibility, if it ever does.
func minCFBisect(s *serial) (SearchResult, error) {
	if s.w.last < s.w.start {
		return SearchResult{}, errNoFeasible(s.s, s.m)
	}
	p := &prober{serial: s, byRect: make(map[fabric.Rect]*probeOutcome), n: int((s.w.last - s.w.start) / s.w.step)}

	// The window start resolves the two common single-run cases exactly
	// like the linear sweep: feasible (or place-legal) immediately, or
	// the module does not fit the device at all.
	_, o := p.probe(0)
	if o.noFit {
		return SearchResult{ToolRuns: p.runs}, o.err
	}
	if o.placeOK {
		return p.routeScan(0)
	}

	// Bracket the place boundary around the capacity pivot, the grid
	// index where CF = 1.0 (target slices = estimated slices). The
	// boundary — and the isolated feasible pockets that the placer's
	// aspect-sensitive packing sometimes carves just above it — cluster
	// at this crossover, so anchoring the gallop there both tightens the
	// bracket and starts it next to the leftmost pocket.
	lo := 0  // highest index known place-fail
	hi := -1 // lowest index known escaped (place-legal or no-fit)
	if pv := p.capacityPivot(); pv > 0 {
		if _, o := p.probe(pv); o.escaped() {
			lo, hi = p.gallopDown(pv)
		} else {
			lo = pv
		}
	}
	if hi < 0 {
		var err error
		if lo, hi, err = p.gallopUp(lo); err != nil {
			return SearchResult{ToolRuns: p.runs}, err
		}
	}
	// Bisect (lo place-fail, hi escaped) down to adjacent indices.
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if _, o := p.probe(mid); o.escaped() {
			hi = mid
		} else {
			lo = mid
		}
	}
	return p.routeScan(p.confirmDown(hi))
}

// capacityPivot returns the window index closest to CF = 1.0 (a tie
// rounds up), clamped to the window, or 0 when the window starts at or
// above it.
func (p *prober) capacityPivot() int {
	d := ticksPerUnit - p.w.start
	if d <= 0 {
		return 0
	}
	pv := int((2*d + p.w.step) / (2 * p.w.step))
	return min(max(pv, 1), p.n)
}

// gallopUp doubles strides above lo until a probe escapes the
// place-failure prefix, returning the bracket (lo place-fail, hi not).
func (p *prober) gallopUp(lo int) (int, int, error) {
	base := lo
	for d := 1; lo < p.n; d *= 2 {
		hi := min(base+d, p.n)
		if _, o := p.probe(hi); o.escaped() {
			return lo, hi, nil
		}
		lo = hi
	}
	return 0, 0, errNoFeasible(p.s, p.m)
}

// gallopDown doubles strides below the escaped index hi until a probe
// lands back in the place-failure prefix, and returns the bracket: that
// probe as lo, and the lowest escaped index the gallop saw as hi.
func (p *prober) gallopDown(hi int) (int, int) {
	base := hi
	for d := 1; base-d > 0; d *= 2 {
		if _, o := p.probe(base - d); !o.escaped() {
			return base - d, hi
		}
		hi = base - d
	}
	return 0, hi // index 0 is a probed place-fail
}

// confirmRects is the width of the downward boundary confirmation, in
// distinct rectangles: the place boundary returned by the bisection is
// accepted only after this many consecutive distinct rectangles below it
// probed place-infeasible. Place success is not perfectly monotone — a
// PBlock aspect flip can make one rectangle unplaceable between two
// placeable ones — and such islands sit right at the boundary, where
// they would otherwise deceive the bisection into skipping the true
// first feasible CF.
const confirmRects = 5

// confirmDown walks downward from the bisection's boundary, adopting any
// lower place-legal index it finds, until confirmRects consecutive
// distinct rectangles probed place-infeasible (or the window start is
// reached).
func (p *prober) confirmDown(hi int) int {
	best := hi
	streak := 0
	var prevFail fabric.Rect
	for i := best - 1; i >= 0 && streak < confirmRects; i-- {
		pb, o := p.probe(i)
		switch {
		case o.placeOK:
			best, streak = i, 0
		case o.noFit:
			// no-fit below the boundary: count no evidence
		case streak == 0 || pb.Rect != prevFail:
			streak++
			prevFail = pb.Rect
		}
	}
	return best
}

// routeScan sweeps grid indices ascending from the place boundary until
// the first routable implementation, mirroring the linear sweep over the
// non-monotone route zone (memoized per rectangle).
func (p *prober) routeScan(from int) (SearchResult, error) {
	for i := from; i <= p.n; i++ {
		pb, o := p.probe(i)
		if o.noFit {
			// Linear-sweep parity: the sweep stops with the Build error
			// the moment the PBlock exceeds the device.
			return SearchResult{ToolRuns: p.runs}, o.err
		}
		if o.feasible {
			impl := &Implementation{PBlock: pb, Placement: o.pl, Route: o.rr}
			return SearchResult{CF: pb.CF, Impl: impl, ToolRuns: p.runs}, nil
		}
	}
	return SearchResult{ToolRuns: p.runs}, errNoFeasible(p.s, p.m)
}
