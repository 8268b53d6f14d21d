package pblock

import (
	"math"
	"sync"

	"macroflow/internal/fabric"
	"macroflow/internal/netlist"
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

// prober evaluates grid-CF feasibility with two layers of reuse the
// linear sweep deliberately forgoes:
//
//   - Rectangle memoization: adjacent grid CFs frequently round to the
//     same PBlock rectangle, and the oracle's verdict is a pure function
//     of the rectangle (placement and routing see the rectangle, not the
//     CF that produced it), so each distinct rectangle is placed and
//     routed at most once per search.
//   - Speculative parallel probes: a batch of candidate rectangles is
//     evaluated concurrently under a pool bounded by SearchConfig.Workers,
//     and the batch's verdicts merge by grid index, so the outcome is
//     independent of goroutine scheduling.
//
// ToolRuns counts oracle executions (each place attempt, with its
// routing probe when placement succeeds); memo hits and failed PBlock
// builds are free. That is the quantity the search minimizes.
type prober struct {
	dev *fabric.Device
	m   *netlist.Module
	rep place.ShapeReport
	// plan is shared by the concurrent probes of a batch.
	plan *Plan
	s    SearchConfig
	cfg  Config

	byRect map[fabric.Rect]*probeOutcome
	runs   int
	n      int // highest grid index within [Start, Max]
	oracle *obs.Counter
}

func newProber(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, s SearchConfig, cfg Config) *prober {
	return &prober{
		dev: dev, m: m, rep: rep, plan: NewPlan(m, rep), s: s, cfg: cfg,
		byRect: make(map[fabric.Rect]*probeOutcome),
		n:      s.lastIndex(),
		oracle: s.Obs.Counter("mincf.oracle_runs"),
	}
}

// probeBatch resolves the verdicts for a batch of grid indices. PBlocks
// are built serially (cheap and deterministic); the distinct
// not-yet-memoized rectangles are placed and routed concurrently.
func (p *prober) probeBatch(idxs []int) []*probeOutcome {
	outs := make([]*probeOutcome, len(idxs))
	rects := make([]fabric.Rect, len(idxs))
	var todo []fabric.Rect
	seen := make(map[fabric.Rect]bool)
	for k, idx := range idxs {
		pb, err := Build(p.dev, p.rep, p.s.cfAt(idx), p.cfg)
		if err != nil {
			outs[k] = &probeOutcome{noFit: true, err: err}
			continue
		}
		rects[k] = pb.Rect
		if _, done := p.byRect[pb.Rect]; !done && !seen[pb.Rect] {
			seen[pb.Rect] = true
			todo = append(todo, pb.Rect)
		}
	}
	if len(todo) > 0 {
		workers := p.s.Workers
		if workers < 1 {
			workers = 1
		}
		results := make([]*probeOutcome, len(todo))
		var wg sync.WaitGroup
		// A pool of worker-slot indices rather than a plain semaphore:
		// acquiring a slot bounds parallelism exactly as before, and the
		// slot number doubles as the probe's rendering lane so concurrent
		// probes draw side by side on a trace timeline.
		lanes := make(chan int, workers)
		for l := 0; l < workers; l++ {
			lanes <- l
		}
		for i := range todo {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				lane := <-lanes
				defer func() { lanes <- lane }()
				results[i] = p.execute(todo[i], lane)
			}(i)
		}
		wg.Wait()
		for i, r := range todo {
			p.byRect[r] = results[i]
			p.runs++
		}
	}
	for k := range idxs {
		if outs[k] == nil {
			outs[k] = p.byRect[rects[k]]
		}
	}
	return outs
}

// execute runs the place-and-route oracle for one rectangle. lane is
// the worker slot executing the probe; concurrent probes of one batch
// record on adjacent lanes above the search's own.
func (p *prober) execute(r fabric.Rect, lane int) *probeOutcome {
	p.oracle.Add(1)
	sp := obs.StartChild(p.s.Obs, p.s.Span, "oracle.probe",
		obs.Int("w", r.X1-r.X0+1), obs.Int("h", r.Y1-r.Y0+1))
	if lane > 0 {
		sp.WithLane(sp.LaneVal() + lane)
	}
	psp := sp.Child("place.detail")
	pl, err := p.plan.Place(p.dev, r, p.cfg.Place)
	psp.End()
	if err != nil {
		sp.Set(obs.String("verdict", "place-fail"))
		sp.End()
		return &probeOutcome{err: err}
	}
	rsp := sp.Child("route.probe")
	rr := p.plan.route(pl, p.cfg.Route)
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

// result assembles the SearchResult for a grid index whose rectangle is
// known feasible.
func (p *prober) result(idx int) SearchResult {
	cf := p.s.cfAt(idx)
	pb, _ := Build(p.dev, p.rep, cf, p.cfg)
	o := p.byRect[pb.Rect]
	return SearchResult{
		CF:       cf,
		Impl:     &Implementation{PBlock: pb, Placement: o.pl, Route: o.rr},
		ToolRuns: p.runs,
	}
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
func minCFBisect(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, s SearchConfig, cfg Config) (SearchResult, error) {
	p := newProber(dev, m, rep, s, cfg)
	if p.n < 0 {
		return SearchResult{}, errNoFeasible(s, m)
	}
	w := s.Workers
	if w < 1 {
		w = 1
	}

	// The window start resolves the two common single-run cases exactly
	// like the linear sweep: feasible (or place-legal) immediately, or
	// the module does not fit the device at all.
	o := p.probeBatch([]int{0})[0]
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
	// bracket and starts it next to the leftmost pocket. A no-fit Build
	// counts as escaping the failure prefix: by capacity monotonicity no
	// place-legal CF exists above a rectangle that exceeds the device.
	//
	// With Workers > 1 a batch of upcoming strides runs concurrently;
	// verdicts are consumed in the serial order, so the bracket (and
	// everything downstream) is bit-identical to the Workers == 1 search
	// — extra speculative probes cost runs, never correctness.
	lo := 0  // highest index known place-fail
	hi := -1 // lowest index known non-place-fail (place-legal or no-fit)
	if pv := p.capacityPivot(); pv > 0 {
		o := p.probeBatch([]int{pv})[0]
		if o.noFit || o.placeOK {
			hi = pv
			lo = p.gallopDown(&hi)
		} else {
			lo = pv
		}
	}
	if hi < 0 {
		var err error
		lo, hi, err = p.gallopUp(lo, w)
		if err != nil {
			return SearchResult{ToolRuns: p.runs}, err
		}
	}

	// Bisect (lo place-fail, hi not) down to adjacent indices. The
	// decision sequence is the plain serial bisection's; Workers > 1
	// speculatively pre-executes the next levels of its decision tree
	// (both possible midpoints, then their four children, ...) so that
	// consecutive decisions resolve from memoized verdicts without
	// waiting — again bit-identical to the serial search by
	// construction.
	for hi-lo > 1 {
		p.probeBatch(bisectPrefetch(lo, hi, w))
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			o, known := p.verdict(mid)
			if !known {
				break // next prefetch round starts here
			}
			if o.noFit || o.placeOK {
				hi = mid
			} else {
				lo = mid
			}
		}
	}
	return p.routeScan(p.confirmDown(hi))
}

// capacityPivot returns the grid index closest to CF = 1.0, clamped to
// the search window, or 0 when the window starts at or above it.
func (p *prober) capacityPivot() int {
	if p.s.Start >= 1.0 || p.s.Step <= 0 {
		return 0
	}
	pv := int(math.Round((1.0 - p.s.Start) / p.s.Step))
	if pv < 1 {
		pv = 1
	}
	if pv > p.n {
		pv = p.n
	}
	return pv
}

// gallopUp doubles strides above lo until a probe escapes the
// place-failure prefix, returning the bracket (lo place-fail, hi not).
func (p *prober) gallopUp(lo, w int) (int, int, error) {
	base := lo
	next := 1
	for {
		if lo >= p.n {
			return 0, 0, errNoFeasible(p.s, p.m)
		}
		var batch []int
		d := next
		for len(batch) < w && base+d < p.n {
			batch = append(batch, base+d)
			d *= 2
		}
		if len(batch) < w {
			batch = append(batch, p.n)
		}
		outs := p.probeBatch(batch)
		for k, bi := range batch {
			if outs[k].noFit || outs[k].placeOK {
				return lo, bi, nil
			}
			lo = bi
		}
		next = d
	}
}

// gallopDown doubles strides below *hi until a probe lands back in the
// place-failure prefix, returning it as lo. Probes that are still
// place-legal (or no-fit) lower *hi on the way down, so the bracket
// closes around the lowest non-fail index the gallop saw.
func (p *prober) gallopDown(hi *int) int {
	w := p.s.Workers
	if w < 1 {
		w = 1
	}
	base := *hi
	d := 1
	for base-d > 0 {
		var batch []int
		for s := d; len(batch) < w && base-s > 0; s *= 2 {
			batch = append(batch, base-s)
		}
		outs := p.probeBatch(batch)
		for k, bi := range batch {
			if outs[k].noFit || outs[k].placeOK {
				*hi = bi
				continue
			}
			return bi
		}
		d = (base - batch[len(batch)-1]) * 2
	}
	return 0 // index 0 is a probed place-fail
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
// reached). The walk consumes verdicts strictly downward, so its result
// is independent of Workers.
func (p *prober) confirmDown(hi int) int {
	best := hi
	streak := 0
	var prevFail fabric.Rect
	haveFail := false
	for i := best - 1; i >= 0 && streak < confirmRects; i-- {
		o := p.probeBatch([]int{i})[0]
		if o.placeOK {
			best = i
			streak = 0
			haveFail = false
			continue
		}
		pb, err := Build(p.dev, p.rep, p.s.cfAt(i), p.cfg)
		if err != nil {
			continue // no-fit below the boundary: count no evidence
		}
		if !haveFail || pb.Rect != prevFail {
			streak++
			prevFail = pb.Rect
			haveFail = true
		}
	}
	return best
}

// bisectPrefetch lists the next probe indices of the serial bisection's
// decision tree over (lo, hi), breadth-first: the midpoint, then the
// midpoints of both possible successor intervals, and so on, until w
// indices are collected or the intervals degenerate. The first index is
// always the one the serial search needs next; the rest are
// speculation.
func bisectPrefetch(lo, hi, w int) []int {
	type iv struct{ a, b int }
	level := []iv{{lo, hi}}
	var out []int
	seen := make(map[int]bool)
	for len(out) < w && len(level) > 0 {
		var next []iv
		for _, v := range level {
			if v.b-v.a <= 1 {
				continue
			}
			m := v.a + (v.b-v.a)/2
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
			next = append(next, iv{v.a, m}, iv{m, v.b})
		}
		level = next
	}
	if len(out) > w {
		out = out[:w]
	}
	return out
}

// verdict returns the memoized outcome for a grid index, if its
// rectangle has been probed (no-fit Builds need no probe and are always
// known).
func (p *prober) verdict(idx int) (*probeOutcome, bool) {
	pb, err := Build(p.dev, p.rep, p.s.cfAt(idx), p.cfg)
	if err != nil {
		return &probeOutcome{noFit: true, err: err}, true
	}
	o, ok := p.byRect[pb.Rect]
	return o, ok
}

// routeScan sweeps grid indices ascending from the place boundary until
// the first routable implementation, mirroring the linear sweep over the
// non-monotone route zone (memoized per rectangle, with up to Workers
// rectangles probed speculatively per step — the merge picks the lowest
// feasible index, so the result is identical for any Workers value).
func (p *prober) routeScan(from int) (SearchResult, error) {
	w := p.s.Workers
	if w < 1 {
		w = 1
	}
	i := from
	for i <= p.n {
		// Probe index i plus, with Workers > 1, the next distinct
		// rectangles ahead of it, concurrently.
		batch := []int{i}
		if w > 1 {
			seen := make(map[fabric.Rect]bool, w)
			if pb, err := Build(p.dev, p.rep, p.s.cfAt(i), p.cfg); err == nil {
				seen[pb.Rect] = true
			}
			for j := i + 1; j <= p.n && len(batch) < w; j++ {
				pb, err := Build(p.dev, p.rep, p.s.cfAt(j), p.cfg)
				if err != nil {
					break
				}
				if !seen[pb.Rect] {
					seen[pb.Rect] = true
					batch = append(batch, j)
				}
			}
		}
		p.probeBatch(batch)
		// Consume verdicts in strict index order from the memo table;
		// stop at the first index whose rectangle has not been probed
		// yet (the next batch starts there). Speculative verdicts past a
		// feasible index are simply never consulted.
		for i <= p.n {
			pb, err := Build(p.dev, p.rep, p.s.cfAt(i), p.cfg)
			if err != nil {
				// Linear-sweep parity: the sweep stops with the Build
				// error the moment the PBlock exceeds the device.
				return SearchResult{ToolRuns: p.runs}, err
			}
			o, ok := p.byRect[pb.Rect]
			if !ok {
				break
			}
			if o.feasible {
				return p.result(i), nil
			}
			i++
		}
	}
	return SearchResult{ToolRuns: p.runs}, errNoFeasible(p.s, p.m)
}
