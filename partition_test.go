package macroflow

import (
	"reflect"
	"strings"
	"testing"

	"macroflow/internal/fabric"
	"macroflow/internal/partition"
	"macroflow/internal/stitch"
)

// TestCompilePartitionedFullAudit: a two-shard partitioned compile
// under CheckLevel=full — partition feasibility, per-shard legality and
// per-shard cost all recounted by the oracle — reports zero violations
// and a populated per-member breakdown.
func TestCompilePartitionedFullAudit(t *testing.T) {
	f := verifyFlow(t)
	d := verifySmallDesign(t)
	opts := CompileOptions{
		Stitch:    StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 5000}, Check: CheckFull},
		Partition: PartitionOptions{Shards: 2},
	}
	res, err := f.Compile(d, MinSweepCF(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify == nil || !res.Verify.Ok() {
		t.Fatalf("partitioned audit not clean:\n%s", res.Verify.String())
	}
	if res.Verify.Checks == 0 {
		t.Fatal("no oracle checks ran")
	}
	pr := res.Partition
	if pr == nil {
		t.Fatal("partitioned run returned no PartitionReport")
	}
	if pr.Backend != "greedy" {
		t.Errorf("default backend %q, want greedy", pr.Backend)
	}
	if len(pr.Members) != 2 {
		t.Fatalf("%d member reports, want 2", len(pr.Members))
	}
	insts := 0
	for _, m := range pr.Members {
		insts += m.Instances
		if m.UsedSlices > m.CapSlices {
			t.Errorf("member %s over capacity: %d > %d slices", m.Name, m.UsedSlices, m.CapSlices)
		}
		if m.Stitch.Placed+m.Stitch.Unplaced != m.Instances {
			t.Errorf("member %s stitched %d+%d of %d instances",
				m.Name, m.Stitch.Placed, m.Stitch.Unplaced, m.Instances)
		}
	}
	if want := res.Stitch.Placed + res.Stitch.Unplaced; insts != want {
		t.Errorf("members hold %d instances, aggregate stitched %d", insts, want)
	}
	if pr.CutPenalty != 1 {
		t.Errorf("default cut penalty %v, want 1", pr.CutPenalty)
	}
	if got := pr.CutPenalty * pr.CutWeight; pr.CutCost != got {
		t.Errorf("CutCost %v != CutPenalty*CutWeight %v", pr.CutCost, got)
	}
	var shardSum float64
	for _, m := range pr.Members {
		shardSum += m.Stitch.FinalCost
	}
	if pr.TotalCost != shardSum+pr.CutCost {
		t.Errorf("TotalCost %v != shard sum %v + cut cost %v", pr.TotalCost, shardSum, pr.CutCost)
	}
	if res.Stitch.FinalCost != pr.TotalCost {
		t.Errorf("aggregate FinalCost %v != partition TotalCost %v", res.Stitch.FinalCost, pr.TotalCost)
	}
	if !strings.Contains(res.Stitch.Map, "\n") {
		t.Error("aggregate map not rendered")
	}
}

// TestCompileUnpartitionedUnchanged: leaving Partition unset keeps the
// single-device path — no PartitionReport, and output identical to an
// explicit zero-value Partition (the byte-identity guard for existing
// callers).
func TestCompileUnpartitionedUnchanged(t *testing.T) {
	f := verifyFlow(t)
	d := verifySmallDesign(t)
	base := CompileOptions{Stitch: StitchOptions{Seed: 4, Anneal: AnnealOptions{Iterations: 4000}}}
	r1, err := f.Compile(d, MinSweepCF(), base)
	if err != nil {
		t.Fatal(err)
	}
	explicit := base
	explicit.Partition = PartitionOptions{}
	r2, err := f.Compile(d, MinSweepCF(), explicit)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Partition != nil || r2.Partition != nil {
		t.Error("unpartitioned run produced a PartitionReport")
	}
	if !reflect.DeepEqual(r1.Stitch, r2.Stitch) {
		t.Error("zero-value Partition changed the stitched result")
	}
}

// TestPartitionOptionsValidate covers the rejection surface shared by
// the CLI and macroflowd.
func TestPartitionOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    PartitionOptions
		ok   bool
	}{
		{"zero", PartitionOptions{}, true},
		{"two shards", PartitionOptions{Shards: 2}, true},
		{"negative shards", PartitionOptions{Shards: -1}, false},
		{"negative penalty", PartitionOptions{Shards: 2, CutPenalty: -1}, false},
		{"negative refinements", PartitionOptions{Shards: 2, Refinements: -2}, false},
	} {
		err := tc.o.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Compile rejects bad partition options before any work.
	f := verifyFlow(t)
	d := verifySmallDesign(t)
	if _, err := f.Compile(d, MinSweepCF(), CompileOptions{
		Partition: PartitionOptions{Shards: -2},
	}); err == nil {
		t.Error("Compile accepted a negative shard count")
	}
}

// TestSharded10xFullAudit is the acceptance-scale check: a two-shard
// partitioned stitch of the 10×-scale synthetic design passes the full
// oracle audit — partition recount plus per-shard placement and cost —
// with zero violations. It also holds the sharding trade-off to its
// bound: greedy assignment plus per-shard hybrid (40,000 moves × 4
// chains) must stay within 2.5× the single-device hybrid on the same
// budget, in total cost (shard wirelength + cut weight + 2000 per
// unplaced instance) summed over seeds 0–2. Each shard is a tighter
// half-device, so a few percent of instances fail to place; the
// sharded/single ratio measured is 2.086.
func TestSharded10xFullAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("10x synthetic audit is slow")
	}
	p := stitch.Synthetic(fabric.XC7Z045(), 10, 7)
	set, err := fabric.Shards(fabric.XC7Z045(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sharded := func(seed int64, cfg stitch.Config) (*partition.Assignment, *stitch.ShardedResult) {
		a, err := partition.Assign(partition.FromStitch(p, set), partition.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = seed
		sres, err := stitch.RunSharded(p, stitch.ShardsOf(set), a.Member, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a, sres
	}
	cfg := stitch.DefaultConfig()
	cfg.Iterations = 20000
	a, sres := sharded(7, cfg)
	vr := &VerifyReport{}
	verifyPartition(CheckFull, p, set, sres, a.Cut, vr, nil, nil)
	if vr.Checks == 0 {
		t.Fatal("no checks ran")
	}
	if !vr.Ok() {
		t.Fatalf("10x sharded audit not clean:\n%s", vr.String())
	}

	hybrid := stitch.DefaultConfig()
	hybrid.Iterations = 40000
	hybrid.Chains = 4
	hybrid.Backend = stitch.BackendHybrid
	var singleCost, shardedCost float64
	for seed := int64(0); seed < 3; seed++ {
		_, sres := sharded(seed, hybrid)
		shardedCost += sres.FinalCost + sres.CutWeight + 2000*float64(sres.Unplaced)
		hybrid.Seed = seed
		r := stitch.Run(p, hybrid)
		singleCost += r.FinalCost + 2000*float64(r.Unplaced)
	}
	t.Logf("sharded/single %.3f", shardedCost/singleCost)
	if shardedCost > 2.5*singleCost {
		t.Errorf("two-shard total %.0f, over 250%% of the single-device hybrid's %.0f", shardedCost, singleCost)
	}
}
