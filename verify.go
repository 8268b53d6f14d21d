package macroflow

import (
	"fmt"
	"math"

	"macroflow/internal/fabric"
	"macroflow/internal/obs"
	"macroflow/internal/oracle"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/stitch"
)

// CheckLevel selects how much differential verification runs alongside
// a flow call. The oracle (internal/oracle) is a deliberately slow,
// brute-force reference implementation of the flow's contracts; turning
// it on trades runtime for an independent audit of every fast path.
// Verification is read-only recomputation: results are bit-identical at
// every level, only the report differs.
type CheckLevel int

const (
	// CheckOff (the zero value) runs no verification — the default, with
	// zero overhead and output identical to releases without the oracle.
	CheckOff CheckLevel = iota
	// CheckSampled audits a deterministic sample of blocks (every
	// checkSampleEvery-th type) and bounds the min-CF re-probe to one
	// grid point below each claim — cheap enough for CI.
	CheckSampled
	// CheckFull audits every block, re-probes the full CF grid below
	// every minimality claim, and re-implements every cache-served block
	// from scratch for byte-equivalence — the paranoid post-refactor run.
	CheckFull
)

// String renders the level as its flag spelling.
func (l CheckLevel) String() string {
	switch l {
	case CheckSampled:
		return "sampled"
	case CheckFull:
		return "full"
	}
	return "off"
}

// Validate rejects levels outside the declared range (a CheckLevel
// forged by casting, or decoded from an untrusted source).
func (l CheckLevel) Validate() error {
	switch l {
	case CheckOff, CheckSampled, CheckFull:
		return nil
	}
	return fmt.Errorf("macroflow: invalid check level %d (want CheckOff, CheckSampled or CheckFull)", int(l))
}

// ParseCheckLevel maps the flag spellings "off", "sampled" and "full"
// onto a CheckLevel.
func ParseCheckLevel(s string) (CheckLevel, error) {
	switch s {
	case "off", "":
		return CheckOff, nil
	case "sampled":
		return CheckSampled, nil
	case "full":
		return CheckFull, nil
	}
	return CheckOff, fmt.Errorf("macroflow: unknown check level %q (want off, sampled or full)", s)
}

// VerifyReport is the structured outcome of a verification pass: how
// many contract checks ran and every violation found. A flow result's
// Verify field holds one when a CheckLevel was requested (nil
// otherwise); Ok/Err/String summarize it.
type VerifyReport = oracle.Report

// Violation is one broken contract found by the oracle.
type Violation = oracle.Violation

// checkSampleEvery is CheckSampled's deterministic stride over block
// type indices: type 0 of every design is always audited, so a sampled
// run can never silently verify nothing.
const checkSampleEvery = 8

// sampleBlock reports whether block type ti is audited at this level.
func (l CheckLevel) sampleBlock(ti int) bool {
	switch l {
	case CheckFull:
		return true
	case CheckSampled:
		return ti%checkSampleEvery == 0
	}
	return false
}

// verifyBlocks cross-checks implemented blocks against the oracle after
// the implementation phase: placement legality recounted from first
// principles, the claimed CF re-probed (with the grid below it when the
// mode claims minimality), and cache-served blocks re-implemented from
// scratch and compared byte-for-byte. Violations accumulate in vr and
// surface through the oracle.checks / oracle.violations counters.
func (f *Flow) verifyBlocks(level CheckLevel, mode CFMode, search pblock.SearchConfig, impls []*pblock.Implementation, blocks []ModuleResult, outcomes []pblock.CacheOutcome, vr *VerifyReport, rec *Recorder, parent *Span) {
	if level == CheckOff || vr == nil {
		return
	}
	sp := obs.StartChild(rec, parent, "oracle.check",
		obs.String("phase", "implement"), obs.String("level", level.String()))
	beforeChecks, beforeViol := vr.Checks, len(vr.Violations)
	// The oracle must not perturb the audited run's traces: probes run
	// unrecorded (and cold — a search holds no cache).
	s := search
	s.Obs, s.Span = nil, nil
	for ti := range impls {
		if impls[ti] == nil || impls[ti].Placement == nil || !level.sampleBlock(ti) {
			continue
		}
		impl := impls[ti]
		oracle.CheckImplementation(f.dev, impl, vr)
		m := impl.Placement.Module
		if m == nil {
			vr.Violate(oracle.CheckerImplementation, "?", "block %d placement carries no module", ti)
			continue
		}
		shape := place.QuickPlace(m)
		p := mode.policy(shape)
		// Minimality on the search grid is claimed only by the sweep;
		// constant and estimator-seeded CFs get a feasibility-only
		// re-probe.
		below := 0
		if p.Minimal() {
			below = -1
			if level == CheckSampled {
				below = 1
			}
		}
		oracle.CheckMinCF(f.dev, m, shape, blocks[ti].CF, below, s, f.cfg, vr)
		if mode.estimator != nil {
			recordEstimatorDrift(rec, mode.estimator.predict(shape), blocks[ti].CF)
		}
		if outcomes[ti].Hit() {
			cached := pblock.SearchResult{CF: blocks[ti].CF, Impl: impl}
			fresh, err := p.Search(f.dev, m, shape, s, f.cfg)
			oracle.CheckEquivalence(m.Name, cached, fresh, err, vr)
		}
	}
	finishVerify(sp, rec, vr, beforeChecks, beforeViol)
}

// verifyStitch cross-checks a stitched design: legality (containment,
// column compatibility, exclusive tile ownership) and the reported cost
// against a from-scratch recomputation. Both levels run the full check —
// stitched-design verification is cheap relative to annealing.
func verifyStitch(level CheckLevel, prob *stitch.Problem, sres *stitch.Result, vr *VerifyReport, rec *Recorder, parent *Span) {
	if level == CheckOff || vr == nil {
		return
	}
	sp := obs.StartChild(rec, parent, "oracle.check",
		obs.String("phase", "stitch"), obs.String("level", level.String()))
	beforeChecks, beforeViol := vr.Checks, len(vr.Violations)
	oracle.CheckPlacement(prob, sres.Origins, vr)
	oracle.CheckCost(prob, sres.Origins, sres.FinalCost, sres.Placed, sres.Unplaced, vr)
	finishVerify(sp, rec, vr, beforeChecks, beforeViol)
}

// verifyPartition cross-checks a partitioned run: the assignment's
// completeness, capacity feasibility and cut weight recounted from
// first principles (oracle.CheckPartition), plus every shard's
// placement legality and reported cost audited on its own sub-problem.
// Both levels run the full check.
func verifyPartition(level CheckLevel, prob *stitch.Problem, set *fabric.Set, sres *stitch.ShardedResult, cut float64, vr *VerifyReport, rec *Recorder, parent *Span) {
	if level == CheckOff || vr == nil {
		return
	}
	sp := obs.StartChild(rec, parent, "oracle.check",
		obs.String("phase", "partition"), obs.String("level", level.String()))
	beforeChecks, beforeViol := vr.Checks, len(vr.Violations)
	oracle.CheckPartition(prob, set.Capacities(), sres.Assign, cut, vr)
	for k := range sres.Problems {
		r := sres.Results[k]
		oracle.CheckPlacement(sres.Problems[k], r.Origins, vr)
		oracle.CheckCost(sres.Problems[k], r.Origins, r.FinalCost, r.Placed, r.Unplaced, vr)
	}
	finishVerify(sp, rec, vr, beforeChecks, beforeViol)
}

// estimatorDriftBuckets are the |predicted − verified| CF error bounds
// of the estimator.abs_err histogram (the paper's 0.02 grid step up to
// a 0.5 gross miss, plus the implicit +Inf).
var estimatorDriftBuckets = []float64{0.02, 0.05, 0.1, 0.2, 0.5}

// recordEstimatorDrift publishes one estimator-vs-oracle comparison:
// whenever a -check audit verifies a block compiled in estimator mode,
// the absolute error between the model's predicted CF and the
// oracle-verified minimal CF lands in the estimator.abs_err histogram.
// The error is rounded to a 1e-9 grid first, so a difference of CFs on
// the 0.02 grid (1.02 − 1.00 is 0.020000000000000018 in float64) falls
// in the bucket its grid value names. Scraped over time, the bucket
// ratios are the estimator-drift signal the active-learning loop
// (ROADMAP item 5) will retrain on: a growing high-le share means
// production traffic has drifted from the training distribution.
func recordEstimatorDrift(rec *Recorder, predicted, verified float64) {
	err := math.Round(math.Abs(predicted-verified)*1e9) / 1e9
	rec.BucketHist("estimator.abs_err", estimatorDriftBuckets).Observe(err)
}

// finishVerify publishes one verification pass's deltas to the obs
// counters (oracle.checks, oracle.violations and a per-checker
// oracle.violations.<checker> breakdown) and closes its span.
func finishVerify(sp *Span, rec *Recorder, vr *VerifyReport, beforeChecks, beforeViol int) {
	checks := vr.Checks - beforeChecks
	viol := vr.Violations[beforeViol:]
	rec.Add("oracle.checks", int64(checks))
	if len(viol) > 0 {
		rec.Add("oracle.violations", int64(len(viol)))
		for _, v := range viol {
			rec.Add("oracle.violations."+v.Checker, 1)
			rec.Event("oracle.violation",
				obs.String("checker", v.Checker),
				obs.String("subject", v.Subject),
				obs.String("detail", v.Detail))
		}
	}
	sp.Set(obs.Int("checks", checks), obs.Int("violations", len(viol)))
	sp.End()
}
