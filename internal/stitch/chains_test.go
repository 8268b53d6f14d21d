package stitch

import (
	"reflect"
	"runtime"
	"testing"
)

// TestChainsDeterministicAcrossRuns: a (Seed, Chains) pair fully
// determines the Result, bit for bit — including traces and telemetry.
func TestChainsDeterministicAcrossRuns(t *testing.T) {
	for _, k := range []int{0, 1, 2, 4} {
		cfg := Config{Seed: 7, Iterations: 8000, Chains: k}
		a := Run(smallProblem(t, 12), cfg)
		b := Run(smallProblem(t, 12), cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("chains=%d: two runs with the same config differ", k)
		}
	}
}

// TestChainsDeterministicAcrossGOMAXPROCS: goroutine scheduling must not
// leak into the result — exchanges happen serially at fixed barriers.
func TestChainsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := Config{Seed: 3, Iterations: 12000, Chains: 4}
	prev := runtime.GOMAXPROCS(1)
	a := Run(smallProblem(t, 12), cfg)
	runtime.GOMAXPROCS(4)
	b := Run(smallProblem(t, 12), cfg)
	runtime.GOMAXPROCS(prev)
	if !reflect.DeepEqual(a, b) {
		t.Error("GOMAXPROCS changed the multi-chain result")
	}
}

// TestSingleChainMatchesSerial: Chains=1 must replay the exact serial
// annealer (Chains=0) — same rng stream, same schedule, same result.
func TestSingleChainMatchesSerial(t *testing.T) {
	serial := Run(smallProblem(t, 12), Config{Seed: 5, Iterations: 9000})
	one := Run(smallProblem(t, 12), Config{Seed: 5, Iterations: 9000, Chains: 1})
	if !reflect.DeepEqual(serial, one) {
		t.Error("Chains=1 diverged from the serial annealer")
	}
}

// TestFinalCostAlwaysInTrace: the cost trace must end with the final
// (iteration, cost) sample even when the run ends off the 256-iteration
// sampling grid, so reaching the final cost is always observable.
func TestFinalCostAlwaysInTrace(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 1, Iterations: 5000},            // 5000 % 256 != 0
		{Seed: 1, Iterations: 5000, Chains: 3}, //
		{Seed: 2, Iterations: 4096},            // on-grid end
	} {
		res := Run(smallProblem(t, 10), cfg)
		if len(res.CostTrace) == 0 {
			t.Fatalf("cfg %+v: empty trace", cfg)
		}
		last := res.CostTrace[len(res.CostTrace)-1]
		want := res.FinalCost + float64(res.Unplaced)*2000 // default penalty
		if last.Cost != want {
			t.Errorf("cfg %+v: last trace cost %.1f, want final %.1f", cfg, last.Cost, want)
		}
		for i := 1; i < len(res.CostTrace); i++ {
			if res.CostTrace[i].Iter <= res.CostTrace[i-1].Iter {
				t.Fatalf("cfg %+v: trace iterations not strictly increasing", cfg)
			}
		}
	}
}

// TestCheckIncremental: the cross-check recomputes every cached
// quantity — net costs, total, and the occupancy bitmap from the
// origins — at every barrier and chain end, and panics on drift; a
// clean run must pass it in both modes, exchanges included.
func TestCheckIncremental(t *testing.T) {
	checks := checkChains(t)
	for _, k := range []int{0, 4} {
		res := Run(smallProblem(t, 14), Config{Seed: 11, Iterations: 6000, Chains: k})
		if res.Placed == 0 {
			t.Errorf("chains=%d: nothing placed", k)
		}
		if k == 4 && res.Exchanges == 0 {
			t.Error("chains=4: no exchange was checked")
		}
	}
	if checks() == 0 {
		t.Error("no chain state was checked")
	}
}

// TestChainsResultLegal: the winning chain's placement must be overlap-
// free and the telemetry consistent.
func TestChainsResultLegal(t *testing.T) {
	p := smallProblem(t, 30)
	res := Run(p, Config{Seed: 8, Iterations: 20000, Chains: 4})
	occ := newOccupancy(p.Dev)
	for ii, o := range res.Origins {
		if !o.Placed {
			continue
		}
		b := &p.Blocks[p.Instances[ii].Block]
		for _, s := range b.Spans {
			if occ.conflict(o.X+s.DX, o.Y+s.Min, o.Y+s.Max) {
				t.Fatalf("instance %d overlaps", ii)
			}
			occ.set(o.X+s.DX, o.Y+s.Min, o.Y+s.Max, true)
		}
	}
	if len(res.Chains) != 4 {
		t.Fatalf("ChainStats entries = %d, want 4", len(res.Chains))
	}
	iters := 0
	for ci, cs := range res.Chains {
		if cs.Chain != ci {
			t.Errorf("chain %d mislabeled as %d", ci, cs.Chain)
		}
		if cs.Moves == 0 {
			t.Errorf("chain %d reports zero moves", ci)
		}
		if ci > 0 && cs.InitTemp <= res.Chains[ci-1].InitTemp {
			t.Errorf("temperature ladder not increasing at chain %d", ci)
		}
		iters += cs.Moves
	}
	if res.Iterations != iters {
		t.Errorf("Iterations %d != sum of chain moves %d", res.Iterations, iters)
	}
}

// TestChainsImproveOnSerialBudget: four tempered chains against the
// serial chain, final costs summed over the row's seeds. On a tiny
// problem and the same budget they must not be dramatically worse
// (they usually win). On the paper's cnvW1A1 problem, four chains on
// 40,000 moves must reach the serial chain's 50,000-move cost. The
// chains/serial ratios measured are 0.924 (small) and 0.986 (cnvW1A1).
func TestChainsImproveOnSerialBudget(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		problem               func() *Problem
		seeds                 []int64
		serialIters, chainIts int
		bound                 float64
	}{
		{"small", func() *Problem { return smallProblem(t, 30) }, []int64{2}, 30000, 30000, 1.25},
		{"cnvW1A1", func() *Problem { return cnvMinCFProblem(t) }, []int64{0, 1, 2}, 50000, 40000, 1},
	} {
		var serialCost, chainedCost float64
		for _, seed := range tc.seeds {
			serialCost += Run(tc.problem(), Config{Seed: seed, Iterations: tc.serialIters}).FinalCost
			chainedCost += Run(tc.problem(), Config{Seed: seed, Iterations: tc.chainIts, Chains: 4}).FinalCost
		}
		t.Logf("%s: chains/serial %.3f", tc.name, chainedCost/serialCost)
		if chainedCost > tc.bound*serialCost {
			t.Errorf("%s: 4 chains / %d moves cost %.1f, over %.2f× the serial %d-move cost %.1f",
				tc.name, tc.chainIts, chainedCost, tc.bound, tc.serialIters, serialCost)
		}
	}
}
