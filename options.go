package macroflow

import (
	"fmt"

	"macroflow/internal/pblock"
	"macroflow/internal/stitch"
)

// AnnealOptions tunes the parallel-tempering annealer (backends
// "anneal" and "hybrid"; the hybrid's annealing phase reads the same
// knobs). The JSON tags are the api/v1 wire spelling
// (apiv1.AnnealParams is this type).
type AnnealOptions struct {
	// Chains runs K parallel-tempering replicas with a geometric
	// temperature ladder and fixed replica-exchange barriers, returning
	// the best chain's result. 0 or 1 keeps the single serial chain,
	// bit-identical to previous releases. Results are bit-reproducible
	// for a given (Seed, Chains) pair regardless of GOMAXPROCS.
	Chains int `json:"chains,omitempty"`
	// Iterations is the total SA move budget (default 200,000), divided
	// evenly across chains when Chains > 1.
	Iterations int `json:"iterations,omitempty"`
}

// AnalyticOptions tunes the gradient-descent global placer (backends
// "analytic" and "hybrid"); apiv1.AnalyticParams is this type.
type AnalyticOptions struct {
	// GDIterations is the gradient-descent budget (default 256).
	GDIterations int `json:"gdIterations,omitempty"`
}

// StitchOptions is the stitch-tuning surface of Compile and RunCNV
// (CompileOptions.Stitch). Per-backend parameters live in the
// Anneal/Analytic sub-structs.
type StitchOptions struct {
	// Seed drives every backend's random streams (chain seeds, the
	// replica-exchange schedule, the analytic scatter).
	Seed int64
	// Anneal tunes the parallel-tempering annealer.
	Anneal AnnealOptions
	// Analytic tunes the gradient-descent global placer.
	Analytic AnalyticOptions
	// TraceEvery is the sampling interval, in iterations, of the
	// StitchReport cost traces (Trace and per-chain Chains[i].Trace).
	// Values < 1 select the validated default of 256; the interval
	// actually used is echoed in StitchReport.TraceEvery, so IterToReach
	// consumers are never tied to a magic constant. The serial chain's
	// Progress callbacks fire on the same grid.
	TraceEvery int
	// Progress, when non-nil, receives (chain, iteration, cost)
	// samples: every TraceEvery iterations from a serial run, and at
	// every exchange barrier per chain from a multi-chain run. It is
	// always invoked from the calling goroutine.
	Progress func(chain, iter int, cost float64)
	// Obs, when non-nil, records stitching spans and metrics
	// (stitch.chains/chain/segment/exchange spans, stitch.moves,
	// stitch.accept_rate, per-chain exchange counters). Nil disables
	// all recording. Recording never affects results.
	Obs *Recorder
	// Check cross-checks the stitched design against the brute-force
	// oracle (internal/oracle): legality recounted tile-by-tile and the
	// final cost recomputed from scratch. CheckOff (the zero value)
	// disables verification; violations land in the result's Verify
	// report and the oracle.violations counters. Verification never
	// changes results.
	Check CheckLevel
	// Backend selects the stitching algorithm: BackendAnneal ("" or
	// "anneal", the default — byte-identical to previous releases),
	// BackendAnalytic ("analytic", gradient-descent global placement
	// plus snap-to-legal, no annealing) or BackendHybrid ("hybrid", the
	// analytic placement seeds the annealer's cold chain). Unknown
	// spellings fail RunCNV/Compile before any work is done. All
	// backends are bit-reproducible from (Seed, Chains, Backend)
	// regardless of GOMAXPROCS. To take the best of several, loop
	// Compile over the backends with one shared Implement.Cache: every
	// block after the first compile is a cache hit.
	Backend string
}

// Backend spellings accepted by StitchOptions.Backend (and the cmds'
// -stitch-backend flags); re-exported so callers need not import
// internal/stitch.
const (
	BackendAnneal   = string(stitch.BackendAnneal)
	BackendAnalytic = string(stitch.BackendAnalytic)
	BackendHybrid   = string(stitch.BackendHybrid)
)

// Validate rejects option combinations the stitcher would refuse: an
// unknown Backend spelling, negative budgets or an out-of-range check
// level. RunCNV, Compile and the macroflowd request decoder all call
// it, so the CLI and the HTTP service reject bad options with the same
// messages — and a typo fails in microseconds, not after the
// implementation phase.
func (o StitchOptions) Validate() error {
	if o.Anneal.Iterations < 0 {
		return fmt.Errorf("macroflow: StitchOptions.Anneal.Iterations must be >= 0 (got %d)", o.Anneal.Iterations)
	}
	if o.Anneal.Chains < 0 {
		return fmt.Errorf("macroflow: StitchOptions.Anneal.Chains must be >= 0 (got %d)", o.Anneal.Chains)
	}
	if o.Analytic.GDIterations < 0 {
		return fmt.Errorf("macroflow: StitchOptions.Analytic.GDIterations must be >= 0 (got %d)", o.Analytic.GDIterations)
	}
	if err := o.Check.Validate(); err != nil {
		return err
	}
	_, err := stitch.ParseBackend(o.Backend)
	return err
}

// SearchChoice selects a per-call minimal-CF search strategy override.
type SearchChoice int

const (
	// SearchFlowDefault keeps the strategy configured on the Flow
	// (SetSearchStrategy; the linear sweep unless changed).
	SearchFlowDefault SearchChoice = iota
	// SearchForceLinear forces the paper's exhaustive sweep.
	SearchForceLinear
	// SearchForceBisect forces the O(log) bisection search.
	SearchForceBisect
)

// ImplementOptions are the block-implementation knobs of Compile and
// RunCNV (CompileOptions.Implement).
type ImplementOptions struct {
	// Workers bounds block-level implementation parallelism (default
	// GOMAXPROCS). The workers start the blocks largest first (by the
	// cell count of the spec), so the longest block never waits for a
	// worker; no result depends on the order or on the worker count.
	Workers int
	// Cache, when non-nil, reuses pre-implemented blocks across calls
	// (and across processes when the cache has a persistent layer).
	Cache *BlockCache
	// Strategy overrides the flow's minimal-CF search strategy for this
	// call; SearchFlowDefault (the zero value) keeps the flow's
	// setting. Both strategies return identical CFs.
	Strategy SearchChoice
	// Obs, when non-nil, records block-implementation spans and metrics
	// (flow/implement.block/search.mincf/oracle.probe spans,
	// mincf.oracle_runs, implcache and blockcache counters). Nil
	// disables all recording. Recording never affects results.
	Obs *Recorder
	// Check cross-checks every implemented block against the brute-force
	// oracle (internal/oracle): placement legality recounted from first
	// principles, minimal-CF claims re-probed linearly, and cache-served
	// blocks re-implemented from scratch for byte-equivalence. CheckOff
	// (the zero value) disables verification; CheckSampled audits a
	// deterministic sample; CheckFull audits everything. Violations land
	// in the result's Verify report and the oracle.violations counters.
	// Verification never changes results.
	Check CheckLevel
}

// Validate rejects implementation options the flow would refuse:
// negative parallelism and out-of-range Strategy or Check selectors.
// RunCNV, Compile and the macroflowd request decoder all call it, so
// the CLI and the HTTP service reject bad options with the same
// messages.
func (o ImplementOptions) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("macroflow: ImplementOptions.Workers must be >= 0 (got %d)", o.Workers)
	}
	switch o.Strategy {
	case SearchFlowDefault, SearchForceLinear, SearchForceBisect:
	default:
		return fmt.Errorf("macroflow: unknown search strategy %d (want SearchFlowDefault, SearchForceLinear or SearchForceBisect)", o.Strategy)
	}
	return o.Check.Validate()
}

// searchFor resolves the effective search configuration of one call
// from the flow's configuration plus the per-call overrides.
func (f *Flow) searchFor(im ImplementOptions) pblock.SearchConfig {
	s := f.search
	switch im.Strategy {
	case SearchForceLinear:
		s.Strategy = pblock.StrategyLinear
	case SearchForceBisect:
		s.Strategy = pblock.StrategyBisect
	}
	s.Obs = im.Obs
	return s
}

// stitchConfig maps the public options onto the stitcher configuration.
func stitchConfig(o StitchOptions) stitch.Config {
	scfg := stitch.DefaultConfig()
	scfg.Seed = o.Seed
	if o.Anneal.Iterations > 0 {
		scfg.Iterations = o.Anneal.Iterations
	}
	scfg.Chains = o.Anneal.Chains
	scfg.TraceEvery = o.TraceEvery
	scfg.Progress = o.Progress
	scfg.Obs = o.Obs
	// Backend is validated by RunCNV/Compile before any work starts;
	// ParseBackend here only normalizes "" to the anneal default.
	scfg.Backend, _ = stitch.ParseBackend(o.Backend)
	scfg.GDIterations = o.Analytic.GDIterations
	return scfg
}

// stitchDesign runs the stitcher on a prepared problem and assembles
// the public report.
// parent, when non-nil, is the flow span the stitching spans nest under.
// vr, when non-nil and o.Check is on, accumulates the oracle's
// cross-check of the stitched result.
func (f *Flow) stitchDesign(prob *stitch.Problem, o StitchOptions, parent *Span, vr *VerifyReport) StitchReport {
	scfg := stitchConfig(o)
	scfg.Span = parent
	sres := stitch.Run(prob, scfg)
	verifyStitch(o.Check, prob, sres, vr, o.Obs, parent)
	rep := newStitchReport(scfg.Backend, sres)
	rep.Map = renderStitchMap(f.dev, prob, sres.Origins)
	return rep
}

// newStitchReport is the one place a stitch.Result becomes a
// StitchReport (a whole design's, or one shard's); the caller adds the
// Map, which needs the device.
func newStitchReport(backend stitch.Backend, r *stitch.Result) StitchReport {
	rep := StitchReport{
		Backend:         string(backend),
		GDIters:         r.GDIters,
		Placed:          r.Placed,
		Unplaced:        r.Unplaced,
		FinalCost:       r.FinalCost,
		ConvergenceIter: r.ConvergenceIter,
		IllegalMoves:    r.IllegalMoves,
		Iterations:      r.Iterations,
		Exchanges:       r.Exchanges,
		FreeTiles:       r.FreeTiles,
		LargestFreeRect: r.LargestFreeRect,
		TraceEvery:      r.TraceEvery,
		Chains:          r.Chains,
	}
	// The annealer's trace samples its total cost, unplaced penalties
	// included; the headline FinalCost excludes them. Pin the final
	// sample (always present) to FinalCost so IterToReach(FinalCost)
	// resolves even when the design overflows the device. The pin goes
	// onto a copy: r.CostTrace shares its backing array with the
	// winning chain's Chains[w].Trace, which keeps the annealer's total.
	if n := len(r.CostTrace); n > 0 {
		rep.Trace = append([]CostPoint(nil), r.CostTrace...)
		rep.Trace[n-1].Cost = rep.FinalCost
	}
	return rep
}
