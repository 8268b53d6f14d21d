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

// TestCheckIncremental: the debug cross-check recomputes every cached
// quantity — net costs, total, and the occupancy bitmap from the
// origins — and panics on drift; a clean run must pass it in both modes.
func TestCheckIncremental(t *testing.T) {
	for _, k := range []int{0, 4} {
		res := Run(smallProblem(t, 14), Config{
			Seed: 11, Iterations: 6000, Chains: k, CheckIncremental: true,
		})
		if res.Placed == 0 {
			t.Errorf("chains=%d: nothing placed", k)
		}
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

// TestChainsImproveOnSerialBudget: with the same total move budget, the
// tempered chains must not be dramatically worse than the serial chain
// (they usually win; allow slack for tiny problems).
func TestChainsImproveOnSerialBudget(t *testing.T) {
	p := smallProblem(t, 30)
	serial := Run(p, Config{Seed: 2, Iterations: 30000})
	chained := Run(smallProblem(t, 30), Config{Seed: 2, Iterations: 30000, Chains: 4})
	if chained.FinalCost > serial.FinalCost*1.25 {
		t.Errorf("chains cost %.1f far worse than serial %.1f", chained.FinalCost, serial.FinalCost)
	}
}
