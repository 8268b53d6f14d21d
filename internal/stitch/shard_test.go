package stitch

import (
	"reflect"
	"runtime"
	"testing"

	"macroflow/internal/fabric"
)

// shardFixture builds a 2×-scale synthetic problem on the xc7z045, a
// two-shard carve, and a deterministic alternating assignment.
func shardFixture(t testing.TB) (*Problem, []Shard, []int) {
	t.Helper()
	p := Synthetic(fabric.XC7Z045(), 2, 7)
	set, err := fabric.Shards(fabric.XC7Z045(), 2)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, len(p.Instances))
	for i := range assign {
		assign[i] = i % 2
	}
	return p, ShardsOf(set), assign
}

// TestShardedDeterministic pins the sharded determinism contract:
// identical (Seed, member set, assignment) produce bit-identical
// results across runs. ci.sh re-runs this under -race at GOMAXPROCS=4.
func TestShardedDeterministic(t *testing.T) {
	p, shards, assign := shardFixture(t)
	cfg := DefaultConfig()
	cfg.Iterations = 6000
	cfg.Seed = 3
	cfg.Chains = 2
	run := func() *ShardedResult {
		r, err := RunSharded(p, shards, assign, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.FinalCost != b.FinalCost {
		t.Errorf("final cost differs across runs: %v vs %v", a.FinalCost, b.FinalCost)
	}
	if !reflect.DeepEqual(a.Origins, b.Origins) {
		t.Error("origins differ across runs")
	}
	if a.CutWeight != b.CutWeight || !reflect.DeepEqual(a.CutNets, b.CutNets) {
		t.Error("cut differs across runs")
	}
}

// TestShardedGOMAXPROCSInvariant runs the same sharded stitch at
// GOMAXPROCS 1 and 4 and requires bit-identical output: the parallel
// shard runs and the ordered reduction must not leak scheduling into
// the arithmetic.
func TestShardedGOMAXPROCSInvariant(t *testing.T) {
	p, shards, assign := shardFixture(t)
	cfg := DefaultConfig()
	cfg.Iterations = 6000
	cfg.Seed = 5
	at := func(procs int) *ShardedResult {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		r, err := RunSharded(p, shards, assign, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := at(1), at(4)
	if a.FinalCost != b.FinalCost {
		t.Errorf("final cost differs across GOMAXPROCS: %v vs %v", a.FinalCost, b.FinalCost)
	}
	if !reflect.DeepEqual(a.Origins, b.Origins) {
		t.Error("origins differ across GOMAXPROCS")
	}
}

// TestShardedStructure checks the reduction invariants: origins land in
// the assigned member's row band, per-shard sums match the aggregate,
// and the cut list is exactly the cross-member nets.
func TestShardedStructure(t *testing.T) {
	p, shards, assign := shardFixture(t)
	cfg := DefaultConfig()
	cfg.Iterations = 6000
	cfg.Seed = 1
	r, err := RunSharded(p, shards, assign, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Origins) != len(p.Instances) {
		t.Fatalf("got %d origins, want %d", len(r.Origins), len(p.Instances))
	}
	placed, unplaced := 0, 0
	for i, o := range r.Origins {
		if !o.Placed {
			unplaced++
			continue
		}
		placed++
		s := shards[assign[i]]
		if o.Y < s.RowOffset || o.Y >= s.RowOffset+s.Dev.Rows {
			t.Errorf("instance %d placed at parent row %d, outside member %q band [%d, %d)",
				i, o.Y, s.Name, s.RowOffset, s.RowOffset+s.Dev.Rows)
		}
	}
	if placed != r.Placed || unplaced != r.Unplaced {
		t.Errorf("placed/unplaced %d/%d, aggregate says %d/%d", placed, unplaced, r.Placed, r.Unplaced)
	}
	var wantCut []int
	var wantWeight float64
	for ni, n := range p.Nets {
		if assign[n.From] != assign[n.To] {
			wantCut = append(wantCut, ni)
			wantWeight += n.Weight
		}
	}
	if !reflect.DeepEqual(r.CutNets, wantCut) || r.CutWeight != wantWeight {
		t.Errorf("cut %d nets weight %v, want %d nets weight %v",
			len(r.CutNets), r.CutWeight, len(wantCut), wantWeight)
	}
	var sumFinal float64
	for _, sr := range r.Results {
		sumFinal += sr.FinalCost
	}
	if sumFinal != r.FinalCost {
		t.Errorf("FinalCost %v is not the shard sum %v", r.FinalCost, sumFinal)
	}
}

// TestShardedRejectsBadAssignment covers the validation paths.
func TestShardedRejectsBadAssignment(t *testing.T) {
	p, shards, assign := shardFixture(t)
	cfg := DefaultConfig()
	cfg.Iterations = 10
	if _, err := RunSharded(p, shards, assign[:1], cfg); err == nil {
		t.Error("short assignment accepted")
	}
	bad := append([]int(nil), assign...)
	bad[0] = len(shards)
	if _, err := RunSharded(p, shards, bad, cfg); err == nil {
		t.Error("out-of-range member accepted")
	}
	if _, err := RunSharded(p, nil, nil, cfg); err == nil {
		t.Error("empty shard list accepted")
	}
}

// anchoredProblem is a synthetic 1x problem whose instances are pulled
// toward off-device points, as a shard's cut nets pull them.
func anchoredProblem() *Problem {
	p := Synthetic(fabric.XC7Z020(), 1, 3)
	for i := 0; i < 10; i++ {
		p.Anchors = append(p.Anchors, Anchor{
			Inst: (i * 17) % len(p.Instances), X: -5, Y: float64(200 + i), Weight: 1.5,
		})
	}
	return p
}

// TestAnchorsIncremental drives the annealer over a problem with
// anchors under the chain check: any drift between the incremental
// anchor-term cache and a full recomputation panics.
func TestAnchorsIncremental(t *testing.T) {
	checkChains(t)
	p := anchoredProblem()
	cfg := DefaultConfig()
	cfg.Iterations = 8000
	cfg.Seed = 9
	r := Run(p, cfg)
	if r.FinalCost <= 0 {
		t.Errorf("anchored run final cost %v, want > 0", r.FinalCost)
	}
	// The anchor pull must actually show up in the objective.
	plain := Synthetic(fabric.XC7Z020(), 1, 3)
	rp := Run(plain, cfg)
	if r.FinalCost == rp.FinalCost {
		t.Error("anchors did not change the objective")
	}
}

// TestAnchorsHybridIncremental exercises the analytic gradient's anchor
// branch plus the annealing refinement under the chain check.
func TestAnchorsHybridIncremental(t *testing.T) {
	checkChains(t)
	p := Synthetic(fabric.XC7Z020(), 1, 4)
	p.Anchors = append(p.Anchors,
		Anchor{Inst: 0, X: 10, Y: 400, Weight: 2},
		Anchor{Inst: len(p.Instances) - 1, X: 30, Y: -60, Weight: 0.5})
	cfg := DefaultConfig()
	cfg.Iterations = 4000
	cfg.Seed = 2
	cfg.Backend = BackendHybrid
	cfg.GDIterations = 64
	if r := Run(p, cfg); r.Placed == 0 {
		t.Error("hybrid anchored run placed nothing")
	}
}
