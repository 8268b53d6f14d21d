// Package pblock implements the PBlock generation algorithm of the
// paper's Fig. 1: from the synthesis resource counts and the quick
// placement's shape report, size a rectangular area constraint as
// estimated-slices x correction-factor, with a constant aspect ratio and
// a height floor from the carry-chain shapes; then determine feasibility
// by running detailed placement and routing inside the rectangle.
//
// It also holds the paper's three correction-factor policies (Policy):
// the exhaustive minimal-CF sweep at 0.02 resolution (§VI-C/§VII), the
// constant CF escalated by 0.1, and the estimator-seeded refinement of
// §VIII (+0.1 coarse steps up, then a 0.02 scan of the last interval).
package pblock

import (
	"errors"
	"fmt"
	"math"

	"macroflow/internal/fabric"
	"macroflow/internal/netlist"
	"macroflow/internal/obs"
	"macroflow/internal/place"
	"macroflow/internal/route"
	"macroflow/internal/rtlgen"
	"macroflow/internal/synth"
)

// PBlock is a sized area constraint for one module.
type PBlock struct {
	Rect fabric.Rect
	// TargetSlices is EstSlices x CF after rounding.
	TargetSlices int
	// CF is the correction factor the PBlock was built with.
	CF float64
}

// Config tunes PBlock generation and the feasibility oracle.
type Config struct {
	// Aspect is the fixed width/height ratio (tiles per row) of
	// generated PBlocks.
	Aspect float64
	// AnchorX is the canonical left column of generated PBlocks; the
	// stitcher relocates them later. Defaults to 1 (first interior
	// column).
	AnchorX int
	// AnchorY is the canonical bottom row.
	AnchorY int
	// Route configures the congestion model.
	Route route.Config
	// Place configures the detailed placer.
	Place place.Options
}

// DefaultConfig returns the calibrated flow configuration.
func DefaultConfig() Config {
	return Config{
		Aspect:  1.0,
		AnchorX: 1,
		AnchorY: 0,
		Route:   route.DefaultConfig(),
	}
}

// ErrNoFit is returned when no PBlock on the device can satisfy the
// module's resource demand at the requested correction factor.
var ErrNoFit = errors.New("pblock: module does not fit on device")

// FrontEnd is the first layer of every block's path: it elaborates and
// optimizes the spec and quick-places the module, returning what Build
// and the searches size and probe. sp, when non-nil, is the span the
// synth.elaborate, synth.optimize and place.quick children nest under.
func FrontEnd(spec rtlgen.Spec, sp *obs.Span) (*netlist.Module, place.ShapeReport, error) {
	esp := sp.Child("synth.elaborate")
	m, err := synth.Elaborate(spec)
	esp.End()
	if err != nil {
		return nil, place.ShapeReport{}, err
	}
	osp := sp.Child("synth.optimize")
	_, err = synth.Optimize(m)
	osp.End()
	if err != nil {
		return nil, place.ShapeReport{}, err
	}
	qsp := sp.Child("place.quick")
	rep := place.QuickPlace(m)
	qsp.End()
	return m, rep, nil
}

// Build sizes a PBlock for the module described by rep at correction
// factor cf, anchored at the canonical origin.
func Build(dev *fabric.Device, rep place.ShapeReport, cf float64, cfg Config) (PBlock, error) {
	target := int(math.Ceil(float64(rep.EstSlices) * cf))
	if target < 1 {
		target = 1
	}
	need := fabric.ResourceCount{
		SlicesM: rep.EstSlicesM,
		BRAM:    rep.EstBRAM,
		DSP:     rep.EstDSP,
	}
	need.SlicesL = target - need.SlicesM
	if need.SlicesL < 0 {
		need.SlicesL = 0
	}

	aspect := cfg.Aspect
	if aspect <= 0 {
		aspect = 1.0
	}
	// Height floor from the shape report; nominal height from the fixed
	// aspect ratio assuming two slices per CLB tile. The generator scans
	// a band of heights around the nominal one and keeps the rectangle
	// with the least slack over the target, so PBlock capacity tracks
	// EstSlices x CF smoothly instead of jumping a whole column at a
	// time.
	hNom := int(math.Ceil(math.Sqrt(float64(target) / (2 * aspect))))
	hMin := rep.MaxShapeHeight
	if hMin < 1 {
		hMin = 1
	}
	if hNom < hMin {
		hNom = hMin
	}
	hMax := hNom*2 + 8
	if hMax > dev.Rows-cfg.AnchorY {
		hMax = dev.Rows - cfg.AnchorY
	}
	// Candidates keep a bounded aspect (w <= 3h + 2): degenerate strips
	// would relocate poorly and do not occur in real flows. Among the
	// acceptable shapes the one with the least slice slack wins.
	best := fabric.Rect{}
	bestSlices := -1
	bestAspectOK := false
	for h := hMin; h <= hMax; h++ {
		w, have, ok := widthFor(dev, cfg, need, h)
		if !ok {
			continue
		}
		r := fabric.Rect{
			X0: cfg.AnchorX, Y0: cfg.AnchorY,
			X1: cfg.AnchorX + w - 1, Y1: cfg.AnchorY + h - 1,
		}
		slices := have.Slices()
		aspectOK := w <= 3*h+2
		switch {
		case aspectOK && !bestAspectOK,
			aspectOK == bestAspectOK && (bestSlices < 0 || slices < bestSlices):
			best, bestSlices, bestAspectOK = r, slices, aspectOK
		}
	}
	if bestSlices < 0 {
		// Nothing in the band fits; fall back to growing taller.
		for h := hMax + 1; h <= dev.Rows-cfg.AnchorY; h++ {
			w, _, ok := widthFor(dev, cfg, need, h)
			if !ok {
				continue
			}
			r := fabric.Rect{
				X0: cfg.AnchorX, Y0: cfg.AnchorY,
				X1: cfg.AnchorX + w - 1, Y1: cfg.AnchorY + h - 1,
			}
			return PBlock{Rect: r, TargetSlices: target, CF: cf}, nil
		}
		return PBlock{}, fmt.Errorf("%w: need %+v", ErrNoFit, need)
	}
	return PBlock{Rect: best, TargetSlices: target, CF: cf}, nil
}

// widthFor finds the smallest width at the configured anchor whose
// rectangle of height h covers the demand, and returns it with the
// rectangle's resources; ok=false if no width up to the device edge
// suffices.
func widthFor(dev *fabric.Device, cfg Config, need fabric.ResourceCount, h int) (int, fabric.ResourceCount, bool) {
	y0 := max(cfg.AnchorY, 0)
	y1 := cfg.AnchorY + h - 1
	if y1 >= dev.Rows {
		return 0, fabric.ResourceCount{}, false
	}
	var have fabric.ResourceCount
	for x := max(cfg.AnchorX, 0); x < dev.NumCols(); x++ {
		have = have.Add(dev.ColumnResources(x, y0, y1))
		if have.Covers(need) {
			return x - cfg.AnchorX + 1, have, true
		}
	}
	return 0, fabric.ResourceCount{}, false
}

// Implementation is the result of implementing one module inside a
// PBlock: the legal placement plus the routing probe.
type Implementation struct {
	PBlock    PBlock
	Placement *place.Placement
	Route     route.Result
}

// Implement builds the PBlock for cf and runs detailed placement and
// routing. It returns an error when the module is infeasible at this cf.
// It is the one-shot form of ImplementPlan.
func Implement(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, cf float64, cfg Config) (*Implementation, error) {
	return ImplementPlan(dev, NewPlan(m, rep), cf, cfg)
}

// Plan is what a search keeps between its probes of one module: the
// placement plan and the routing tables of the finished probe, which the
// next probe overwrites. Every search in this package owns one for its
// duration, on one goroutine; a verdict is the same from a fresh plan as
// from a reused one.
type Plan struct {
	*place.Plan
	router route.Scratch
}

// NewPlan returns the probe plan of module m with shape report rep.
func NewPlan(m *netlist.Module, rep place.ShapeReport) *Plan {
	return &Plan{Plan: place.NewPlan(m, rep)}
}

// ImplementPlan is Implement for a caller that probes one module at
// several correction factors through one plan.
func ImplementPlan(dev *fabric.Device, plan *Plan, cf float64, cfg Config) (*Implementation, error) {
	pb, err := Build(dev, plan.Shape(), cf, cfg)
	if err != nil {
		return nil, err
	}
	pl, err := plan.Place(dev, pb.Rect, cfg.Place)
	if err != nil {
		return nil, &placeError{cf, err}
	}
	rr := plan.router.Route(pl, cfg.Route)
	if !rr.Feasible {
		pass := "detour pass"
		if rr.DetourBounded {
			pass = "first pass"
		}
		return nil, fmt.Errorf("cf %.2f: route infeasible (%s peak %.2f, overflow %.3f)", cf, pass, rr.PeakUtil, rr.OverflowFrac)
	}
	return &Implementation{PBlock: pb, Placement: pl, Route: rr}, nil
}

// placeError is a probe's placement reject at one CF. A sweep discards
// hundreds of them per block unread, so the text is formatted on demand.
type placeError struct {
	cf  float64
	err error
}

func (e *placeError) Error() string { return fmt.Sprintf("cf %.2f: %v", e.cf, e.err) }
func (e *placeError) Unwrap() error { return e.err }

// Strategy selects the minimal-CF search algorithm.
type Strategy int

const (
	// StrategyLinear is the paper's exhaustive sweep: probe every grid
	// point from Start upward until the first feasible implementation.
	// It is the default, and the only strategy whose ToolRuns accounting
	// matches the paper's run-time metric (§VIII).
	StrategyLinear Strategy = iota
	// StrategyBisect returns the same CF as the linear sweep in O(log)
	// instead of O(range/step) oracle runs. It bisects on the verdict
	// that is monotone in the CF — detailed-placement success, which
	// only needs more rectangle capacity — and then scans the short
	// place-legal-but-unroutable zone above that boundary in ascending
	// order, because the routing probe is a congestion measurement that
	// is NOT monotone in the rectangle size. Identical rectangles across
	// adjacent grid CFs are probed once (the verdict is a function of
	// the rectangle, not the CF). See minCFBisect for the equivalence
	// argument.
	StrategyBisect
)

// SearchConfig controls the minimal-CF search.
type SearchConfig struct {
	Start float64 // first CF probed (paper: 0.9 for the dataset)
	Step  float64 // resolution, a multiple of the 0.02 grid (paper: 0.02)
	Max   float64 // give up above this CF
	// Strategy selects the search algorithm; the zero value is the
	// paper-fidelity linear sweep.
	Strategy Strategy
	// Obs, when non-nil, records search spans (search.mincf,
	// oracle.probe with per-probe place/route children) and counters
	// (mincf.oracle_runs, mincf.probes_per_block). Nil disables all
	// recording at no cost. Obs and Span are excluded from
	// SearchFingerprint: observability never changes verdicts.
	Obs *obs.Recorder
	// Span is the parent span new search spans nest under (nil = root).
	Span *obs.Span
}

// Validate rejects a Step that is not a positive multiple of the CF
// grid: every probe is a tick, so a finer step would probe ticks over
// and over, and one between multiples would skip ticks unevenly.
func (s SearchConfig) Validate() error {
	_, err := s.window()
	return err
}

// window is a search window in ticks: the first, the step, and the last
// at or under Max (before the first when the window is empty).
type window struct{ start, step, last Tick }

// window converts the search window to ticks, the one place a CF is
// compared with a tolerance: Step within 1e-9 of a whole number of
// ticks, Max read 1e-9 high so that a Max on the grid keeps its tick.
// Start snaps to its nearest tick; a NaN Start or Max is empty.
func (s SearchConfig) window() (window, error) {
	// The conversion rounds the product before the subtraction, so no
	// platform fuses them; the negated test fails a NaN step too.
	if k := float64(s.Step * ticksPerUnit); !(k > 1-1e-9 && math.Abs(k-math.Round(k)) < 1e-9) {
		return window{}, fmt.Errorf("pblock: search step %g is not a positive multiple of the %g CF grid", s.Step, Tick(1).CF())
	}
	if math.IsNaN(s.Start) || math.IsNaN(s.Max) {
		return window{step: TickOf(s.Step), last: -1}, nil
	}
	return window{TickOf(s.Start), TickOf(s.Step), ticks(math.Floor((s.Max + 1e-9) * ticksPerUnit))}, nil
}

// DefaultSearch returns the paper's dataset sweep parameters.
func DefaultSearch() SearchConfig {
	return SearchConfig{Start: 0.9, Step: 0.02, Max: 2.5}
}

// SearchResult is the outcome of a CF search.
type SearchResult struct {
	CF       float64
	Impl     *Implementation
	ToolRuns int // number of implement attempts performed by this call
}

// Policy is how one block's CF is chosen, one of the paper's three: the
// minimal-CF sweep (the zero value), RapidWright's constant CF (1.68 in
// §IV) or the §VIII estimator seed. It owns the search, the block key's
// mode fingerprint and the minimality claim.
type Policy struct {
	kind policyKind
	cf   float64 // the constant CF, or the estimator's predicted CF
}

type policyKind uint8

const (
	sweep policyKind = iota
	constant
	estimate
)

var kindNames = [...]string{sweep: "minsweep", constant: "constant", estimate: "estimator"}

// Sweep searches the minimal feasible CF on the search grid (MinCF).
func Sweep() Policy { return Policy{} }

// Constant implements at cf, snapped to its nearest grid tick, stepping
// up by 0.1 while infeasible.
func Constant(cf float64) Policy { return Policy{kind: constant, cf: cf} }

// Estimate refines an estimator's predicted CF (FromEstimate).
func Estimate(predicted float64) Policy { return Policy{kind: estimate, cf: predicted} }

// Tiny reports whether a block of estSlices estimated slices has one or
// two tiles. §VIII: "we removed the modules that had one or two tiles
// from the evaluation, as their PBlock is straightforward and they do
// not require an estimator". The estimator policy sweeps such a block,
// and its samples leave it out.
func Tiny(estSlices int) bool { return estSlices < 6 }

// Validate rejects a constant CF or an estimate that is not a finite
// number > 0 (a NaN estimate as ErrEstimateNaN).
func (p Policy) Validate() error {
	ok := p.cf > 0 && !math.IsInf(p.cf, 1)
	switch {
	case p.kind == estimate && math.IsNaN(p.cf):
		return ErrEstimateNaN
	case p.kind == estimate && !ok:
		return fmt.Errorf("%w: %g", ErrEstimate, p.cf)
	case p.kind == constant && !ok:
		return fmt.Errorf("pblock: constant CF %g is not a finite number > 0", p.cf)
	}
	return nil
}

// ErrEstimate is an estimate that is not a finite number > 0, refused
// before any tool run; ErrEstimateNaN is its NaN case.
var (
	ErrEstimate    = errors.New("pblock: estimated CF is not a finite number > 0")
	ErrEstimateNaN = fmt.Errorf("%w: NaN", ErrEstimate)
)

// Kind names the policy: "minsweep", "constant" or "estimator".
func (p Policy) Kind() string { return kindNames[p.kind] }

// Fingerprint is the policy's part of a BlockKey. It prints the CF, so
// a retrained estimator addresses new records instead of stale ones; a
// constant prints the tick it probes.
func (p Policy) Fingerprint() string {
	switch p.kind {
	case constant:
		return fmt.Sprintf("constant:%.4f", TickOf(p.cf).CF())
	case estimate:
		return fmt.Sprintf("estimator:%.6f", p.cf)
	}
	return p.Kind()
}

// Minimal reports whether the policy claims its CF is the grid minimum;
// a constant or estimate-seeded CF is claimed feasible only.
func (p Policy) Minimal() bool { return p.kind == sweep }

// Search chooses the module's CF under the policy. A policy or window
// that fails Validate is an error before any probe.
func (p Policy) Search(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, s SearchConfig, cfg Config) (SearchResult, error) {
	if err := p.Validate(); err != nil {
		return SearchResult{}, err
	}
	switch p.kind {
	case constant:
		return traced(dev, m, rep, s, cfg, func(r *serial) (SearchResult, error) { return escalate(r, p.cf) },
			"search.constant", obs.String("module", m.Name), obs.Float("cf0", p.cf))
	case estimate:
		return FromEstimate(dev, m, rep, p.cf, s, cfg)
	}
	return MinCF(dev, m, rep, s, cfg)
}

// coarseTicks is the constant climb's and the §VIII climb's step, 0.1.
const coarseTicks = 5

// escalate is the constant policy's search: probe cf's tick and, while
// infeasible, climb 0.1 until past the window's last tick. Like the
// sweep it stops at the first ErrNoFit probe: no larger CF fits either.
func escalate(p *serial, cf float64) (SearchResult, error) {
	for t := TickOf(cf); ; t += coarseTicks {
		if res, err := p.try(t); err == nil || errors.Is(err, ErrNoFit) || t+coarseTicks > p.w.last {
			return res, err
		}
	}
}

// MinCF finds the minimal feasible correction factor on the search grid.
// The default linear strategy sweeps from s.Start in s.Step increments
// until the first feasible implementation — the paper's ground-truth
// procedure; StrategyBisect returns the same CF with O(log) probes. A
// window s.Validate rejects is an error before any probe.
func MinCF(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, s SearchConfig, cfg Config) (SearchResult, error) {
	search := minCFLinear
	if s.Strategy == StrategyBisect {
		search = minCFBisect
	}
	return traced(dev, m, rep, s, cfg, search, "search.mincf", obs.String("module", m.Name), obs.String("strategy", s.Strategy.name()))
}

func (st Strategy) name() string {
	if st == StrategyBisect {
		return "bisect"
	}
	return "linear"
}

// traced converts the window to ticks and runs one search under a span
// named name, which carries attrs and then the search's CF and tool runs.
// The runs also land in mincf.probes_per_block, the solver-health series
// a service watches for degrading searches; a search that could not
// probe (an empty window) adds no sample, nor does a block the cache
// served.
func traced(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, s SearchConfig, cfg Config, search func(*serial) (SearchResult, error), name string, attrs ...obs.Attr) (SearchResult, error) {
	w, err := s.window()
	if err != nil {
		return SearchResult{}, err
	}
	sp := obs.StartChild(s.Obs, s.Span, name, attrs...)
	s.Span = sp
	res, err := search(&serial{dev: dev, m: m, plan: NewPlan(m, rep), s: s, w: w, cfg: cfg, oracle: s.Obs.Counter("mincf.oracle_runs")})
	sp.Set(obs.Float("cf", res.CF), obs.Int("tool_runs", res.ToolRuns))
	sp.End()
	if res.ToolRuns > 0 {
		s.Obs.BucketHist("mincf.probes_per_block", nil).Observe(float64(res.ToolRuns))
	}
	return res, err
}

// minCFLinear is the paper's exhaustive sweep. Every grid point is a
// full from-scratch implement attempt and counts one tool run, matching
// the paper's run-time accounting.
func minCFLinear(p *serial) (SearchResult, error) {
	for t := p.w.start; t <= p.w.last; t += p.w.step {
		if res, err := p.try(t); err == nil || errors.Is(err, ErrNoFit) {
			return res, err
		}
	}
	return SearchResult{ToolRuns: p.runs}, errNoFeasible(p.s, p.m)
}

// serial is one search's module, plan, window and run count. Its try is
// the probe step the sweep, the §VIII refinement and the constant climb
// share (each computes its own ticks): a tool run (runs,
// mincf.oracle_runs) and an oracle.probe span with its cf and verdict.
type serial struct {
	dev    *fabric.Device
	m      *netlist.Module
	plan   *Plan
	s      SearchConfig
	w      window
	cfg    Config
	oracle *obs.Counter
	runs   int
}

// try implements the module at tick t through the search's plan. Its
// result carries the search's tool runs so far, and on success the CF
// and the implementation.
func (p *serial) try(t Tick) (SearchResult, error) {
	p.runs++
	p.oracle.Add(1)
	cf := t.CF()
	sp := obs.StartChild(p.s.Obs, p.s.Span, "oracle.probe", obs.Float("cf", cf))
	impl, err := ImplementPlan(p.dev, p.plan, cf, p.cfg)
	sp.Set(obs.String("verdict", probeVerdict(err)))
	sp.End()
	if err != nil {
		return SearchResult{ToolRuns: p.runs}, err
	}
	return SearchResult{CF: cf, Impl: impl, ToolRuns: p.runs}, nil
}

// probeVerdict names an Implement outcome for span attributes.
func probeVerdict(err error) string {
	switch {
	case err == nil:
		return "feasible"
	case errors.Is(err, ErrNoFit):
		return "no-fit"
	default:
		return "infeasible"
	}
}

func errNoFeasible(s SearchConfig, m *netlist.Module) error {
	return fmt.Errorf("pblock: no feasible CF in [%.2f, %.2f] for %s", s.Start, s.Max, m.Name)
}

// FromEstimate runs the paper's §VIII procedure: try the estimated CF;
// while infeasible, step up by 0.1; once feasible, scan the last 0.1
// interval downward-compatible at 0.02 resolution for the tightest
// feasible CF. The returned ToolRuns counts every implement attempt, the
// paper's run-time metric. An estimate that is not a finite number > 0
// is an ErrEstimate before any probe.
func FromEstimate(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, est float64, s SearchConfig, cfg Config) (SearchResult, error) {
	if err := Estimate(est).Validate(); err != nil {
		return SearchResult{}, err
	}
	return traced(dev, m, rep, s, cfg, func(p *serial) (SearchResult, error) { return fromEstimate(p, est) },
		"search.estimate", obs.String("module", m.Name), obs.Float("est", est))
}

// fromEstimate is FromEstimate's search, run under its span. The
// estimate starts at its nearest tick, or at the window's step if that
// is lower. The climb stops at the first ErrNoFit probe, as the sweep
// does.
func fromEstimate(p *serial, est float64) (SearchResult, error) {
	t := max(TickOf(est), p.w.step)
	res, err := p.try(t)
	if err == nil {
		return res, nil // the estimate is feasible: a first-run success
	}
	// Coarse upward steps of 0.1; lo is the last infeasible tick.
	lo := t
	for err != nil {
		if errors.Is(err, ErrNoFit) {
			return res, err
		}
		if t += coarseTicks; t > p.w.last {
			return SearchResult{ToolRuns: p.runs}, fmt.Errorf("pblock: estimator refinement exceeded CF %.2f for %s", p.s.Max, p.m.Name)
		}
		if res, err = p.try(t); err != nil {
			lo = t
		}
	}
	// Fine scan of the last interval (lo, t) at the window's step.
	for f := lo + p.w.step; f < t; f += p.w.step {
		if fine, err := p.try(f); err == nil {
			return fine, nil
		}
	}
	res.ToolRuns = p.runs
	return res, nil
}

// Tick is a correction factor on the one CF grid, counted in 0.02 steps:
// tick t is the CF t/50. Searches step ticks; a tick becomes a float64
// only where a PBlock is sized and where a result or span reports it.
// maxTick bounds a tick (a CF beyond any device; a tick plus a step fits
// an int32).
type Tick int

const ticksPerUnit, maxTick = 50, 1 << 29

// TickOf returns the tick nearest cf (a half-way case away from zero),
// saturating at ±maxTick. NaN has no tick.
func TickOf(cf float64) Tick { return ticks(math.Round(cf * ticksPerUnit)) }

// CF returns the correction factor of tick t.
func (t Tick) CF() float64 { return float64(t) / ticksPerUnit }

// ticks converts a whole number of ticks, saturating at ±maxTick.
func ticks(x float64) Tick { return Tick(max(-maxTick, min(x, maxTick))) }
