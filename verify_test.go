package macroflow

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"macroflow/internal/oracle"
)

// smallDesign builds a 3-type, 6-instance pipeline small enough for the
// oracle's full re-probe to stay fast.
func verifySmallDesign(t *testing.T) *Design {
	t.Helper()
	d := NewDesign()
	a := d.AddBlockType(NewSpec("va").Logic(120, 4, 2))
	b := d.AddBlockType(NewSpec("vb").Logic(200, 4, 3).ShiftRegs(2, 8, 2, 2))
	c := d.AddBlockType(NewSpec("vc").Logic(90, 3, 2))
	prev := -1
	for i, ti := range []int{a, b, c, a, b, c} {
		inst, err := d.AddInstance(ti, string(rune('p'+i)))
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 {
			if err := d.Connect(prev, inst, 16); err != nil {
				t.Fatal(err)
			}
		}
		prev = inst
	}
	return d
}

func verifyFlow(t *testing.T) *Flow {
	t.Helper()
	f, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	f.SetSearch(0.9, 0.02, 3.0)
	return f
}

// TestCompileCheckFullClean: a clean compile under CheckLevel=full
// reports zero violations, and CheckOff leaves Verify nil.
func TestCompileCheckFullClean(t *testing.T) {
	f := verifyFlow(t)
	d := verifySmallDesign(t)
	opts := CompileOptions{
		Stitch:    StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 5000}, Check: CheckFull},
		Implement: ImplementOptions{Check: CheckFull},
	}
	res, err := f.Compile(d, MinSweepCF(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify == nil {
		t.Fatal("CheckFull produced no verify report")
	}
	if !res.Verify.Ok() {
		t.Fatalf("clean compile reported violations:\n%s", res.Verify.String())
	}
	if res.Verify.Checks == 0 {
		t.Fatal("verify report ran zero checks")
	}

	off, err := f.Compile(d, MinSweepCF(), CompileOptions{
		Stitch: StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 5000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if off.Verify != nil {
		t.Fatal("CheckOff produced a verify report")
	}
	// Verification is read-only: the audited run's results are identical.
	if off.Stitch.FinalCost != res.Stitch.FinalCost || off.Stitch.Placed != res.Stitch.Placed {
		t.Errorf("CheckFull perturbed results: cost %v vs %v, placed %d vs %d",
			res.Stitch.FinalCost, off.Stitch.FinalCost, res.Stitch.Placed, off.Stitch.Placed)
	}
}

// TestRunCNVCheckFullClean: the cnvW1A1 reproduction under the full
// audit — every block's placement recounted, every minimal-CF claim
// re-probed across the whole grid below it, the stitched design
// recounted tile-by-tile — reports zero violations.
func TestRunCNVCheckFullClean(t *testing.T) {
	if testing.Short() {
		t.Skip("cnv flow in -short mode")
	}
	f := verifyFlow(t)
	f.SetSearch(0.5, 0.02, 3.0)
	res, err := f.RunCNV(MinSweepCF(), CNVOptions{
		Stitch:    StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 20000}, Check: CheckFull},
		Implement: ImplementOptions{Check: CheckFull},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify == nil || res.Verify.Checks == 0 {
		t.Fatal("no verification ran")
	}
	if !res.Verify.Ok() {
		t.Fatalf("clean cnv run reported violations:\n%s", res.Verify.String())
	}
}

// TestChaosCorruptedCacheDetected is the dedicated "corrupted cache
// entry" fault-class test, end to end through Compile: a persistent
// cache record whose CF was corrupted still rebuilds (the warm-start
// audit checks the placement, not the CF), and only the oracle's
// cache-equivalence checker catches the lie.
func TestChaosCorruptedCacheDetected(t *testing.T) {
	f := verifyFlow(t)
	d := verifySmallDesign(t)
	dir := t.TempDir()

	warm, err := NewPersistentBlockCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Compile(d, MinSweepCF(), CompileOptions{
		SkipStitch: true,
		Implement:  ImplementOptions{Cache: warm},
	}); err != nil {
		t.Fatal(err)
	}

	ch := oracle.NewChaos(9)
	path, err := ch.CorruptCacheEntry(dir)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh process (new BlockCache, same directory) serves the
	// corrupted record through the disk layer.
	cold, err := NewPersistentBlockCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Compile(d, MinSweepCF(), CompileOptions{
		SkipStitch: true,
		Implement:  ImplementOptions{Cache: cold, Check: CheckFull},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.DiskHits == 0 {
		t.Fatalf("corrupted record %s was not served from disk — the fault never reached the checker", path)
	}
	if res.Verify == nil || res.Verify.Ok() {
		t.Fatalf("corrupted cache entry %s went undetected", path)
	}
	if res.Verify.ByChecker(oracle.CheckerCache) == 0 && res.Verify.ByChecker(oracle.CheckerMinCF) == 0 {
		t.Fatalf("violations attributed to the wrong checker:\n%s", res.Verify.String())
	}
}

// TestRecordEstimatorDrift pins the drift histogram's exposition after
// a Merge into an empty recorder, the daemon's path to /metrics:
// cumulative Prometheus le buckets (every bound at or above the error
// counts it, +Inf always does), the sum and the count.
func TestRecordEstimatorDrift(t *testing.T) {
	rec := NewRecorder()
	recordEstimatorDrift(rec, 1.00, 1.03) // err 0.03: first bucket missed
	recordEstimatorDrift(rec, 1.00, 1.00) // err 0: all buckets
	recordEstimatorDrift(rec, 1.02, 1.00) // err 0.02: exact boundary counts
	recordEstimatorDrift(rec, 2.00, 1.00) // err 1.0: only +Inf
	merged := NewRecorder()
	merged.Merge(rec)
	var buf bytes.Buffer
	if err := merged.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE estimator_abs_err histogram",
		`estimator_abs_err_bucket{le="0.02"} 2`,
		`estimator_abs_err_bucket{le="0.05"} 3`,
		`estimator_abs_err_bucket{le="0.1"} 3`,
		`estimator_abs_err_bucket{le="0.2"} 3`,
		`estimator_abs_err_bucket{le="0.5"} 3`,
		`estimator_abs_err_bucket{le="+Inf"} 4`,
		"estimator_abs_err_sum 1.05",
		"estimator_abs_err_count 4",
	} {
		if !slices.Contains(strings.Split(buf.String(), "\n"), want) {
			t.Errorf("exposition lacks the line %q:\n%s", want, buf.String())
		}
	}
}

// TestEstimatorDriftFromCheckAudit runs the end-to-end hook: a compile
// in estimator mode under a -check audit must compare every audited
// block's predicted CF against the oracle-verified one and populate the
// drift counters; the same compile without the estimator records none.
func TestEstimatorDriftFromCheckAudit(t *testing.T) {
	f, est, _ := trainQuick(t, DecisionTree, FeaturesAdditional)
	f.SetSearch(0.9, 0.02, 3.0)
	d := verifySmallDesign(t)
	rec := NewRecorder()
	res, err := f.Compile(d, EstimatorCF(est), CompileOptions{
		SkipStitch: true,
		Implement:  ImplementOptions{Check: CheckFull, Obs: rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify == nil || res.Verify.Checks == 0 {
		t.Fatal("no verification ran")
	}
	if n := rec.BucketHistValue("estimator.abs_err").Count; n != 3 {
		t.Errorf("drift comparisons = %d, want one per audited block type (3)", n)
	}

	// Sweep mode has no prediction to compare: no drift series.
	rec2 := NewRecorder()
	if _, err := f.Compile(d, MinSweepCF(), CompileOptions{
		SkipStitch: true,
		Implement:  ImplementOptions{Check: CheckFull, Obs: rec2},
	}); err != nil {
		t.Fatal(err)
	}
	if n := rec2.BucketHistValue("estimator.abs_err").Count; n != 0 {
		t.Errorf("sweep-mode compile recorded %d drift comparisons, want 0", n)
	}
}

func TestParseCheckLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want CheckLevel
	}{{"off", CheckOff}, {"", CheckOff}, {"sampled", CheckSampled}, {"full", CheckFull}} {
		got, err := ParseCheckLevel(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseCheckLevel(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("String() round-trip lost %q", tc.in)
		}
	}
	if _, err := ParseCheckLevel("paranoid"); err == nil {
		t.Error("unknown level accepted")
	}
}
