package partition_test

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"macroflow/internal/fabric"
	"macroflow/internal/partition"
	"macroflow/internal/stitch"
)

// randomProblem derives a synthetic partition problem from an rng:
// 1–4 members with assorted capacities, up to 40 instances with small
// demands, and a random net list. Some draws are infeasible on
// purpose — the property test accepts a typed error for those.
func randomProblem(rng *rand.Rand) *partition.Problem {
	p := &partition.Problem{}
	members := 1 + rng.Intn(4)
	for k := 0; k < members; k++ {
		p.Capacity = append(p.Capacity, fabric.ResourceCount{
			SlicesL: rng.Intn(400), SlicesM: rng.Intn(200),
			BRAM: rng.Intn(20), DSP: rng.Intn(40),
		})
	}
	n := rng.Intn(40)
	for i := 0; i < n; i++ {
		p.Demand = append(p.Demand, fabric.ResourceCount{
			SlicesL: rng.Intn(60), SlicesM: rng.Intn(30),
			BRAM: rng.Intn(4), DSP: rng.Intn(6),
		})
	}
	if n > 0 {
		for e := rng.Intn(60); e > 0; e-- {
			p.Nets = append(p.Nets, partition.Net{
				From: rng.Intn(n), To: rng.Intn(n),
				Weight: float64(1+rng.Intn(8)) / 2,
			})
		}
	}
	return p
}

// typedError reports whether err is one of the partitioner's declared
// failure modes (anything else is a bug).
func typedError(err error) bool {
	var inf *partition.InfeasibleError
	var bad *partition.BadNetError
	return errors.As(err, &inf) || errors.As(err, &bad) || errors.Is(err, partition.ErrNoMembers)
}

// assignmentValid recounts an assignment from scratch: complete,
// in-range, capacity-feasible, and with Util/Cut matching independent
// recomputation.
func assignmentValid(p *partition.Problem, a *partition.Assignment) bool {
	if len(a.Member) != len(p.Demand) {
		return false
	}
	util := make([]fabric.ResourceCount, len(p.Capacity))
	for i, k := range a.Member {
		if k < 0 || k >= len(p.Capacity) {
			return false
		}
		util[k] = util[k].Add(p.Demand[i])
	}
	for k := range util {
		if !p.Capacity[k].Covers(util[k]) || util[k] != a.Util[k] {
			return false
		}
	}
	cut := 0.0
	for _, n := range p.Nets {
		if a.Member[n.From] != a.Member[n.To] {
			cut += n.Weight
		}
	}
	return cut == a.Cut
}

// TestAssignProperty is the randomized battery: every problem draw
// yields either a complete, overlap-free, capacity-feasible assignment
// with a correct cut, or a typed error.
func TestAssignProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng)
		a, err := partition.Assign(p, partition.Config{Seed: seed})
		if err != nil {
			return typedError(err)
		}
		return assignmentValid(p, a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// partitionFixture builds a realistic problem: the 2×-scale synthetic
// CNN on a two-shard xc7z045 carve.
func partitionFixture(t testing.TB) *partition.Problem {
	t.Helper()
	sp := stitch.Synthetic(fabric.XC7Z045(), 2, 7)
	set, err := fabric.Shards(fabric.XC7Z045(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return partition.FromStitch(sp, set)
}

// TestAssignDeterministic pins the determinism contract: identical
// problems give identical, valid assignments.
func TestAssignDeterministic(t *testing.T) {
	p := partitionFixture(t)
	cfg := partition.Config{Seed: 11}
	a, err := partition.Assign(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := partition.Assign(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("assignment differs across runs")
	}
	if !assignmentValid(p, a) {
		t.Error("invalid assignment on the synthetic fixture")
	}
}

// TestAssignGOMAXPROCSInvariant holds Assign to the determinism
// contract the sharded stitcher builds on: the core count must not
// leak into the assignment.
func TestAssignGOMAXPROCSInvariant(t *testing.T) {
	p := partitionFixture(t)
	at := func(procs int) *partition.Assignment {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		a, err := partition.Assign(p, partition.Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if a, b := at(1), at(4); !reflect.DeepEqual(a, b) {
		t.Error("assignment differs across GOMAXPROCS")
	}
}

// TestAssignRejectsMalformed covers the typed error paths.
func TestAssignRejectsMalformed(t *testing.T) {
	if _, err := partition.Assign(&partition.Problem{}, partition.Config{}); !errors.Is(err, partition.ErrNoMembers) {
		t.Errorf("empty member list: got %v, want ErrNoMembers", err)
	}
	p := &partition.Problem{
		Capacity: []fabric.ResourceCount{{SlicesL: 10}},
		Demand:   []fabric.ResourceCount{{SlicesL: 1}},
		Nets:     []partition.Net{{From: 0, To: 5, Weight: 1}},
	}
	var bad *partition.BadNetError
	if _, err := partition.Assign(p, partition.Config{}); !errors.As(err, &bad) {
		t.Errorf("out-of-range net: got %v, want BadNetError", err)
	}
	huge := &partition.Problem{
		Capacity: []fabric.ResourceCount{{SlicesL: 10}},
		Demand:   []fabric.ResourceCount{{SlicesL: 100}},
	}
	var inf *partition.InfeasibleError
	if _, err := partition.Assign(huge, partition.Config{}); !errors.As(err, &inf) {
		t.Errorf("oversized instance: got %v, want InfeasibleError", err)
	}
	if _, err := partition.Assign(p, partition.Config{Backend: "quantum"}); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestParseBackend pins the flag spellings.
func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want partition.Backend
		ok   bool
	}{
		{"", partition.BackendGreedy, true},
		{"greedy", partition.BackendGreedy, true},
		{"evo", "", false},
		{"annealing", "", false},
	} {
		got, err := partition.ParseBackend(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseBackend(%q) accepted", tc.in)
		}
	}
}

// TestBlockDemand checks the fast-path demand arithmetic against a
// handcrafted block on the xc7z020 column map.
func TestBlockDemand(t *testing.T) {
	dev := fabric.XC7Z020()
	// Find one column of each kind.
	col := map[fabric.ColumnKind]int{}
	for x := 0; x < dev.NumCols(); x++ {
		k := dev.KindAt(x)
		if _, seen := col[k]; !seen {
			col[k] = x
		}
	}
	b := &stitch.Block{HomeX: 0, Spans: []stitch.ColSpan{
		{DX: col[fabric.ColCLBL], Min: 0, Max: 9}, // 10 rows CLBL
		{DX: col[fabric.ColBRAM], Min: 0, Max: 6}, // 7 rows → 2 BRAM tiles
		{DX: col[fabric.ColDSP], Min: 0, Max: 4},  // 5 rows → 1 DSP tile
	}}
	got := partition.BlockDemand(dev, b)
	want := fabric.ResourceCount{
		SlicesL: 10 * fabric.SlicesPerCLB,
		BRAM:    2,
		DSP:     fabric.DSPPerTile,
	}
	if cm, ok := col[fabric.ColCLBM]; ok {
		b2 := &stitch.Block{HomeX: 0, Spans: []stitch.ColSpan{{DX: cm, Min: 0, Max: 3}}}
		g2 := partition.BlockDemand(dev, b2)
		if g2.SlicesL != 4 || g2.SlicesM != 4 {
			t.Errorf("CLBM demand = %+v, want 4 L + 4 M", g2)
		}
	}
	if got != want {
		t.Errorf("BlockDemand = %+v, want %+v", got, want)
	}
}
