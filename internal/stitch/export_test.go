package stitch

import "testing"

// Test helpers of package stitch, exported to its external tests.
var (
	CNVMinCFProblem = cnvMinCFProblem
	AnchoredProblem = anchoredProblem
)

// CheckChains is checkChains.
func CheckChains(tb testing.TB) func() int64 { return checkChains(tb) }
