// Oracle property test for the analytic backend, in an external test
// package: internal/oracle imports internal/stitch, so the cross-check
// cannot live in package stitch itself.
package stitch_test

import (
	"testing"

	"macroflow/internal/fabric"
	"macroflow/internal/oracle"
	"macroflow/internal/stitch"
)

// TestLegalizedPlacementsPassOracle: every backend's result — across
// seeds, scales and both devices — must satisfy the differential
// oracle's placement recount and from-scratch cost recomputation. This
// is the property the snap-to-legal pass exists to guarantee: the
// continuous analytic positions never leak into the discrete result.
func TestLegalizedPlacementsPassOracle(t *testing.T) {
	problems := []struct {
		name string
		p    *stitch.Problem
	}{
		{"synthetic-1x-z020", stitch.Synthetic(fabric.XC7Z020(), 1, 3)},
		{"synthetic-2x-z045", stitch.Synthetic(fabric.XC7Z045(), 2, 5)},
	}
	for _, tc := range problems {
		for _, be := range []stitch.Backend{
			stitch.BackendAnneal, stitch.BackendAnalytic, stitch.BackendHybrid,
		} {
			for seed := int64(0); seed < 3; seed++ {
				cfg := stitch.DefaultConfig()
				cfg.Seed = seed
				cfg.Iterations = 6000
				cfg.Chains = 2
				cfg.Backend = be
				res := stitch.Run(tc.p, cfg)
				var rep oracle.Report
				oracle.CheckPlacement(tc.p, res.Origins, &rep)
				oracle.CheckCost(tc.p, res.Origins, res.FinalCost, res.Placed, res.Unplaced, &rep)
				if len(rep.Violations) != 0 {
					t.Errorf("%s backend=%s seed=%d: %d oracle violations, first: %s",
						tc.name, be, seed, len(rep.Violations), rep.Violations[0].Detail)
				}
				if rep.Checks == 0 {
					t.Fatal("oracle performed no checks")
				}
			}
		}
	}
}

// TestCostUnitsExact: the annealer's cost is a whole number of 1/32
// units, so its incremental state is exact. For every backend and chain
// count, on the cnv device, synthetic problems at 1x and 10x and an
// anchored problem, each chain's state at every barrier and at its end
// has a running cost equal to a recomputation and every cached net
// equal to its recompute (CheckChains), and FinalCost equals the
// oracle's float64 recomputation with ==.
func TestCostUnitsExact(t *testing.T) {
	checks := stitch.CheckChains(t)
	problems := []struct {
		name string
		p    *stitch.Problem
	}{
		{"cnv-z020", stitch.CNVMinCFProblem(t)},
		{"synthetic-1x-z045", stitch.Synthetic(fabric.XC7Z045(), 1, 3)},
		{"synthetic-10x-z045", stitch.Synthetic(fabric.XC7Z045(), 10, 3)},
		{"anchored-z020", stitch.AnchoredProblem()},
	}
	configs := []struct {
		backend stitch.Backend
		chains  int
	}{
		{stitch.BackendAnneal, 1}, {stitch.BackendAnneal, 4},
		{stitch.BackendAnalytic, 1},
		{stitch.BackendHybrid, 1}, {stitch.BackendHybrid, 4},
	}
	for _, tc := range problems {
		for _, c := range configs {
			before := checks()
			res := stitch.Run(tc.p, stitch.Config{
				Seed: 5, Backend: c.backend, Chains: c.chains, Iterations: 4000, GDIterations: 32,
			})
			if checks() == before {
				t.Fatalf("%s %s/%d: no chain state was checked", tc.name, c.backend, c.chains)
			}
			if want := oracle.RecomputeCost(tc.p, res.Origins); res.FinalCost != want {
				t.Errorf("%s %s/%d: FinalCost %v, oracle recomputation %v", tc.name, c.backend, c.chains, res.FinalCost, want)
			}
		}
	}
}

// TestCheckCostIsExact: a reported cost off by 1e-7 — far below any
// relative float tolerance on a cost of thousands — is a violation.
func TestCheckCostIsExact(t *testing.T) {
	p := stitch.CNVMinCFProblem(t)
	res := stitch.Run(p, stitch.Config{Seed: 1, Iterations: 4000})
	if res.FinalCost < 1000 {
		t.Fatalf("cnv final cost %v: want a cost in the thousands", res.FinalCost)
	}
	var clean, off oracle.Report
	oracle.CheckCost(p, res.Origins, res.FinalCost, res.Placed, res.Unplaced, &clean)
	oracle.CheckCost(p, res.Origins, res.FinalCost+1e-7, res.Placed, res.Unplaced, &off)
	if !clean.Ok() {
		t.Fatalf("exact cost reported as a violation:\n%s", clean.String())
	}
	if off.ByChecker(oracle.CheckerCost) == 0 {
		t.Errorf("cost %v reported as %v went undetected", res.FinalCost, res.FinalCost+1e-7)
	}
}
