// Package pblock implements the PBlock generation algorithm of the
// paper's Fig. 1: from the synthesis resource counts and the quick
// placement's shape report, size a rectangular area constraint as
// estimated-slices x correction-factor, with a constant aspect ratio and
// a height floor from the carry-chain shapes; then determine feasibility
// by running detailed placement and routing inside the rectangle.
//
// It also provides the two correction-factor searches the paper uses:
// the exhaustive minimal-CF sweep at 0.02 resolution (§VI-C/§VII) and the
// estimator-seeded refinement of §VIII (+0.1 coarse steps up, then a 0.02
// scan of the last interval).
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
		return nil, fmt.Errorf("cf %.2f: route infeasible (peak %.2f, overflow %.3f)", cf, rr.PeakUtil, rr.OverflowFrac)
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

// cfAt returns the i-th grid point of the sweep. Indexing the grid (as
// opposed to accumulating Step) keeps probed CFs exact over arbitrarily
// long sweeps.
func (s SearchConfig) cfAt(i int) float64 {
	return roundCF(s.Start + float64(i)*s.Step)
}

// Validate rejects a Step that is not a positive multiple of the CF
// grid. cfAt snaps every probed CF to the grid, so a finer step would
// probe each grid CF grid/Step times over, and a step between grid
// multiples would skip grid CFs unevenly.
func (s SearchConfig) Validate() error {
	// Written as "not a whole number of grid steps, at least one" so
	// that a NaN step fails too.
	if k := s.Step * gridPerUnit; !(k > 1-1e-9 && math.Abs(k-math.Round(k)) < 1e-9) {
		return fmt.Errorf("pblock: search step %g is not a positive multiple of the %g CF grid", s.Step, 1.0/gridPerUnit)
	}
	return nil
}

// lastIndex returns the highest grid index not exceeding Max, or -1 for
// an empty window.
func (s SearchConfig) lastIndex() int {
	if s.cfAt(0) > s.Max+1e-9 {
		return -1
	}
	i := 0
	for s.cfAt(i+1) <= s.Max+1e-9 {
		i++
	}
	return i
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

// MinCF finds the minimal feasible correction factor on the search grid.
// The default linear strategy sweeps from s.Start in s.Step increments
// until the first feasible implementation — the paper's ground-truth
// procedure; StrategyBisect returns the same CF with O(log) probes. A
// window s.Validate rejects is an error before any probe.
func MinCF(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, s SearchConfig, cfg Config) (SearchResult, error) {
	if err := s.Validate(); err != nil {
		return SearchResult{}, err
	}
	sp := obs.StartChild(s.Obs, s.Span, "search.mincf",
		obs.String("module", m.Name), obs.String("strategy", s.Strategy.name()))
	s.Span = sp
	res, err := searchMinCF(dev, m, rep, s, cfg)
	sp.Set(obs.Float("cf", res.CF), obs.Int("tool_runs", res.ToolRuns))
	sp.End()
	recordProbes(s.Obs, res.ToolRuns)
	return res, err
}

// recordProbes feeds the per-block probe count into the
// mincf.probes_per_block histogram — the solver-health series a live
// service watches to spot searches degrading (estimator drift, cache
// misses, pathological modules). A search that could not probe at all
// (an empty window) adds no sample, and neither does a block the cache
// served: ReadThrough never calls the search then.
func recordProbes(rec *obs.Recorder, runs int) {
	if runs > 0 {
		rec.Observe("mincf.probes_per_block", float64(runs))
	}
}

func (st Strategy) name() string {
	if st == StrategyBisect {
		return "bisect"
	}
	return "linear"
}

// searchMinCF dispatches to the configured strategy.
func searchMinCF(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, s SearchConfig, cfg Config) (SearchResult, error) {
	if s.Strategy == StrategyBisect {
		return minCFBisect(dev, m, rep, s, cfg)
	}
	return minCFLinear(dev, m, rep, s, cfg)
}

// minCFLinear is the paper's exhaustive sweep. Every grid point is a
// full from-scratch implement attempt and counts one tool run, matching
// the paper's run-time accounting.
func minCFLinear(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, s SearchConfig, cfg Config) (SearchResult, error) {
	runs := 0
	oracle := s.Obs.Counter("mincf.oracle_runs")
	plan := NewPlan(m, rep)
	for i := 0; ; i++ {
		cf := s.cfAt(i)
		if cf > s.Max+1e-9 {
			break
		}
		runs++
		oracle.Add(1)
		psp := obs.StartChild(s.Obs, s.Span, "oracle.probe", obs.Float("cf", cf))
		impl, err := ImplementPlan(dev, plan, cf, cfg)
		psp.Set(obs.String("verdict", probeVerdict(err)))
		psp.End()
		if err == nil {
			return SearchResult{CF: cf, Impl: impl, ToolRuns: runs}, nil
		}
		if errors.Is(err, ErrNoFit) {
			return SearchResult{ToolRuns: runs}, err
		}
	}
	return SearchResult{ToolRuns: runs}, errNoFeasible(s, m)
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
// paper's run-time metric.
func FromEstimate(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, est float64, s SearchConfig, cfg Config) (SearchResult, error) {
	if err := s.Validate(); err != nil {
		return SearchResult{}, err
	}
	sp := obs.StartChild(s.Obs, s.Span, "search.estimate",
		obs.String("module", m.Name), obs.Float("est", est))
	s.Span = sp
	res, err := fromEstimate(dev, m, rep, est, s, cfg)
	sp.Set(obs.Float("cf", res.CF), obs.Int("tool_runs", res.ToolRuns))
	sp.End()
	recordProbes(s.Obs, res.ToolRuns)
	return res, err
}

// fromEstimate is FromEstimate's body, split out so the wrapper can
// record the search span around every return path.
func fromEstimate(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, est float64, s SearchConfig, cfg Config) (SearchResult, error) {
	runs := 0
	oracle := s.Obs.Counter("mincf.oracle_runs")
	plan := NewPlan(m, rep)
	try := func(cf float64) (*Implementation, bool) {
		runs++
		oracle.Add(1)
		psp := obs.StartChild(s.Obs, s.Span, "oracle.probe", obs.Float("cf", cf))
		impl, err := ImplementPlan(dev, plan, cf, cfg)
		psp.Set(obs.String("verdict", probeVerdict(err)))
		psp.End()
		return impl, err == nil
	}
	cf := roundCF(est)
	if cf < s.Step {
		cf = s.Step
	}
	impl, ok := try(cf)
	if !ok {
		// Coarse upward steps of 0.1, indexed from the starting estimate
		// so the probed CFs stay exact grid points over long climbs.
		base, lo := cf, cf
		for j := 1; ; j++ {
			cf = roundCF(base + float64(j)*0.1)
			if cf > s.Max {
				return SearchResult{ToolRuns: runs}, fmt.Errorf("pblock: estimator refinement exceeded CF %.2f for %s", s.Max, m.Name)
			}
			impl, ok = try(cf)
			if ok {
				break
			}
			lo = cf
		}
		// Fine scan of the last interval (lo, cf) at the grid resolution,
		// indexed from lo for the same drift-free reason.
		for i := 1; ; i++ {
			f := roundCF(lo + float64(i)*s.Step)
			if f >= cf-1e-9 {
				break
			}
			if fineImpl, fineOK := try(f); fineOK {
				return SearchResult{CF: f, Impl: fineImpl, ToolRuns: runs}, nil
			}
		}
		return SearchResult{CF: cf, Impl: impl, ToolRuns: runs}, nil
	}
	// First run feasible: the estimate already yields an implementation.
	return SearchResult{CF: cf, Impl: impl, ToolRuns: runs}, nil
}

// gridPerUnit is the resolution of the CF grid, the paper's 0.02.
const gridPerUnit = 50

// roundCF snaps a CF to the grid to avoid float drift.
func roundCF(cf float64) float64 {
	return math.Round(cf*gridPerUnit) / gridPerUnit
}
