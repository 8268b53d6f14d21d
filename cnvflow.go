package macroflow

import (
	"strings"

	"macroflow/internal/baseline"
	"macroflow/internal/cnv"
	"macroflow/internal/fabric"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/stitch"
)

// CFMode selects how the per-block correction factor is chosen; per
// block it resolves to an internal/pblock policy (policy).
type CFMode struct {
	fixed     pblock.Policy
	estimator *Estimator
}

// ConstantCF implements every block at the given fixed correction
// factor, escalating by 0.1 when a block is infeasible at it (every
// attempt counts as a tool run).
func ConstantCF(cf float64) CFMode { return CFMode{fixed: pblock.Constant(cf)} }

// MinSweepCF searches each block's minimal CF with the flow's sweep.
func MinSweepCF() CFMode { return CFMode{fixed: pblock.Sweep()} }

// EstimatorCF seeds each block's CF from a trained estimator and refines
// per §VIII; one- or two-tile blocks need no estimator and are swept.
func EstimatorCF(e *Estimator) CFMode { return CFMode{estimator: e} }

// Validate rejects a ConstantCF whose cf is not a finite number > 0.
// Compile and ImplementBlock return its error before any tool run.
func (m CFMode) Validate() error { return m.fixed.Validate() }

// policy resolves the mode for one block of shape rep: the one place a
// compile asks the estimator, and applies the §VIII tiny-block rule.
func (m CFMode) policy(rep place.ShapeReport) pblock.Policy {
	if m.estimator == nil || pblock.Tiny(rep.EstSlices) {
		return m.fixed
	}
	return pblock.Estimate(m.estimator.predict(rep))
}

// name is the mode's spelling on the flow.compile span.
func (m CFMode) name() string {
	if m.estimator != nil {
		return "estimator"
	}
	return m.fixed.Kind()
}

// StitchReport summarizes the stitching of the full design (or, inside
// a MemberReport, of one shard). The JSON tags are the api/v1 wire
// spelling (apiv1.StitchSummary is this type), and the field order is
// the wire's field order.
type StitchReport struct {
	// Backend echoes the validated stitcher backend the run used
	// ("anneal", "analytic" or "hybrid").
	Backend string `json:"backend"`
	// GDIters is the analytic gradient-descent iteration count of the
	// run (0 for the pure anneal backend).
	GDIters         int     `json:"gdIters,omitempty"`
	Placed          int     `json:"placed"`
	Unplaced        int     `json:"unplaced"`
	FinalCost       float64 `json:"finalCost"`
	ConvergenceIter int     `json:"convergenceIter"`
	// IllegalMoves and Iterations sum over all chains.
	IllegalMoves int `json:"illegalMoves"`
	Iterations   int `json:"iterations"`
	// Exchanges counts accepted replica exchanges (0 for serial runs).
	Exchanges int `json:"exchanges,omitempty"`
	// FreeTiles and LargestFreeRect describe the leftover fabric: a
	// large free rectangle alongside unplaced blocks indicates dead
	// spots and column-incompatibility losses rather than raw area
	// exhaustion (§IV).
	FreeTiles       int `json:"freeTiles"`
	LargestFreeRect int `json:"largestFreeRect"`
	// TraceEvery is the sampling interval Trace and the per-chain
	// traces were recorded at — StitchOptions.TraceEvery after
	// validation (default 256).
	TraceEvery int `json:"traceEvery"`
	// Map is an ASCII occupancy rendering of the device (Fig. 5/13);
	// empty in a MemberReport, whose origins are drawn on the aggregate
	// report's map.
	Map string `json:"map,omitempty"`
	// Trace samples the annealing cost curve of the winning chain
	// (every TraceEvery iterations, plus the final point, which is
	// pinned to FinalCost).
	Trace []CostPoint `json:"trace,omitempty"`
	// Chains holds per-chain telemetry (one entry for serial runs).
	Chains []ChainReport `json:"chains,omitempty"`
}

// CostPoint is one sample of the SA cost curve.
type CostPoint = stitch.CostSample

// ChainReport is the telemetry of one annealing chain.
type ChainReport = stitch.ChainStats

// IterToReach returns the first sampled iteration at which the cost was
// at or below the threshold, or -1 if never reached. Comparing one run's
// IterToReach against another run's final cost measures time-to-equal-
// quality — the paper's "converged N times faster". The trace always
// ends with the final (iteration, cost) sample, so a converged run can
// always observe its own FinalCost.
func (r *StitchReport) IterToReach(cost float64) int {
	for _, p := range r.Trace {
		if p.Cost <= cost {
			return p.Iter
		}
	}
	return -1
}

// CNVResult is the outcome of running the full flow on cnvW1A1.
type CNVResult struct {
	// Blocks holds one result per unique block type (74 entries).
	Blocks []ModuleResult
	// InstanceOf maps each block result to its instance count.
	Instances []int
	// TotalToolRuns sums the implementation attempts over all blocks.
	TotalToolRuns int
	// FirstRunRate is the fraction of estimated blocks feasible on the
	// first attempt (§VIII: 52.7%).
	FirstRunRate float64
	// CacheHits counts block types served from Implement.Cache.
	CacheHits int
	// Cache breaks the hits down by layer for this call.
	Cache CacheStats
	// Stitch is the final design assembly. For a partitioned run it is
	// the aggregate over all shards (global origins, combined cost).
	Stitch StitchReport
	// Partition is the per-member breakdown of a partitioned run — nil
	// unless Partition.Shards was set.
	Partition *PartitionReport
	// Verify is the oracle cross-check report — nil unless a CheckLevel
	// was requested on Implement.Check or Stitch.Check.
	Verify *VerifyReport
}

// CNVOptions tunes the cnvW1A1 flow run: the same options as any other
// design's compile.
type CNVOptions = CompileOptions

// RunCNV compiles the partitioned cnvW1A1 design — every unique block
// implemented under the given CF mode, all 175 instances stitched onto
// the flow's device — through Compile, and adds the paper's tallies:
// instances per block type and the §VIII first-run rate.
func (f *Flow) RunCNV(mode CFMode, opts CNVOptions) (*CNVResult, error) {
	design := cnv.CNVW1A1()
	cr, err := f.Compile(cnvDesign(design), mode, opts)
	if err != nil {
		return nil, err
	}
	res := &CNVResult{
		Blocks:        cr.Blocks,
		Instances:     make([]int, len(cr.Blocks)),
		TotalToolRuns: cr.ToolRuns,
		CacheHits:     cr.CacheHits,
		Cache:         cr.Cache,
		Stitch:        cr.Stitch,
		Partition:     cr.Partition,
		Verify:        cr.Verify,
	}
	firstRun, estimated := 0, 0
	for ti, b := range cr.Blocks {
		res.Instances[ti] = design.InstanceCount(ti)
		if mode.estimator != nil && !pblock.Tiny(b.EstSlices) {
			estimated++
			if b.ToolRuns == 1 {
				firstRun++
			}
		}
	}
	if estimated > 0 {
		res.FirstRunRate = float64(firstRun) / float64(estimated)
	}
	return res, nil
}

// cnvDesign expresses the case study as a Design: a cnv block type's
// rtlgen.Spec is what a Spec wraps.
func cnvDesign(c *cnv.Design) *Design {
	d := NewDesign()
	for ti := range c.Types {
		d.AddBlockType(&Spec{inner: c.Types[ti].Spec})
	}
	for _, in := range c.Instances {
		d.instances = append(d.instances, designInst{name: in.Name, typ: in.Type})
	}
	for _, n := range c.Nets {
		d.nets = append(d.nets, designNet{from: n.From, to: n.To, width: n.Width})
	}
	return d
}

// renderStitchMap draws a stitched placement as ASCII, one character
// per tile column, rows downsampled (Fig. 5/13 analog). Occupied tiles
// show the block's kind letter, free fabric '.', clock columns '|'.
// Partitioned runs render their parent-coordinate origins on the parent
// device through the same path.
func renderStitchMap(dev *fabric.Device, prob *stitch.Problem, origins []stitch.Origin) string {
	w, h := dev.NumCols(), dev.Rows
	grid := make([]byte, w*h)
	for i := range grid {
		grid[i] = '.'
	}
	for x := 0; x < w; x++ {
		if dev.KindAt(x).String() == "K" {
			for y := 0; y < h; y++ {
				grid[y*w+x] = '|'
			}
		}
	}
	for ii, o := range origins {
		if !o.Placed {
			continue
		}
		b := &prob.Blocks[prob.Instances[ii].Block]
		ch := byte(strings.ToUpper(prob.Instances[ii].Name)[0])
		for _, s := range b.Spans {
			for y := o.Y + s.Min; y <= o.Y+s.Max; y++ {
				grid[y*w+o.X+s.DX] = ch
			}
		}
	}
	// Downsample rows by 5 (one clock-region fifth per text row),
	// printing top row first.
	var sb strings.Builder
	for y := h - 5; y >= 0; y -= 5 {
		row := grid[y*w : y*w+w]
		sb.Write(row)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// RunCNVBaseline compiles the flattened cnvW1A1 with the monolithic
// vendor-style flow (Fig. 5a / Table I comparator) and returns the
// device utilization achieved.
func (f *Flow) RunCNVBaseline() (utilization float64, usedSlices int, err error) {
	d := cnv.CNVW1A1()
	r, err := baseline.PlaceAll(f.dev, d)
	if err != nil {
		return 0, 0, err
	}
	return r.Utilization, r.UsedSlices, nil
}
