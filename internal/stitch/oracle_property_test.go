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
