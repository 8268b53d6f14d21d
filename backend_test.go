package macroflow

import (
	"strings"
	"testing"
)

// TestStitchBackendValidation: an unknown backend spelling must fail
// RunCNV and Compile before any block is implemented.
func TestStitchBackendValidation(t *testing.T) {
	f := verifyFlow(t)
	bad := StitchOptions{Backend: "gradient"}
	if err := bad.Validate(); err == nil {
		t.Fatal("validate accepted an unknown backend")
	}
	if _, err := f.Compile(verifySmallDesign(t), MinSweepCF(), CompileOptions{
		Stitch: bad,
	}); err == nil || !strings.Contains(err.Error(), "backend") {
		t.Errorf("Compile with a bad backend: err = %v, want backend error", err)
	}
	if _, err := f.RunCNV(MinSweepCF(), CNVOptions{Stitch: bad}); err == nil ||
		!strings.Contains(err.Error(), "backend") {
		t.Errorf("RunCNV with a bad backend: err = %v, want backend error", err)
	}
	for _, ok := range []string{"", BackendAnneal, BackendAnalytic, BackendHybrid} {
		if err := (StitchOptions{Backend: ok}).Validate(); err != nil {
			t.Errorf("validate(%q) = %v", ok, err)
		}
	}
}

// TestCompileBackendsAuditClean: every backend, end to end through
// Compile under the full oracle audit, reports zero violations and
// echoes its backend in the report.
func TestCompileBackendsAuditClean(t *testing.T) {
	f := verifyFlow(t)
	d := verifySmallDesign(t)
	for _, be := range []string{BackendAnneal, BackendAnalytic, BackendHybrid} {
		res, err := f.Compile(d, MinSweepCF(), CompileOptions{
			Stitch:    StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 5000}, Backend: be, Check: CheckFull},
			Implement: ImplementOptions{Check: CheckFull},
		})
		if err != nil {
			t.Fatalf("backend %s: %v", be, err)
		}
		if res.Verify == nil || res.Verify.Checks == 0 {
			t.Fatalf("backend %s: no verification ran", be)
		}
		if !res.Verify.Ok() {
			t.Errorf("backend %s reported violations:\n%s", be, res.Verify.String())
		}
		if res.Stitch.Backend != be {
			t.Errorf("report backend %q, want %q", res.Stitch.Backend, be)
		}
		// Only the analytic-seeded backends carry a gradient-descent
		// budget; the pure annealer must report zero.
		usesGD := be != BackendAnneal
		if usesGD && res.Stitch.GDIters == 0 {
			t.Errorf("backend %s does not echo its GD budget", be)
		}
		if !usesGD && res.Stitch.GDIters != 0 {
			t.Errorf("backend %s reports %d GD iterations", be, res.Stitch.GDIters)
		}
	}
}

// TestRunCNVHybridFullAudit: the cnvW1A1 flow on the hybrid backend
// under the full oracle audit — the analytic seed, the legalization and
// the refined annealing result all recounted from first principles —
// reports zero violations. ci.sh runs this alongside the anneal-backend
// audit.
func TestRunCNVHybridFullAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("cnv flow in -short mode")
	}
	f := verifyFlow(t)
	f.SetSearch(0.5, 0.02, 3.0)
	res, err := f.RunCNV(MinSweepCF(), CNVOptions{
		Stitch:    StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 20000}, Backend: BackendHybrid, Check: CheckFull},
		Implement: ImplementOptions{Check: CheckFull},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify == nil || res.Verify.Checks == 0 {
		t.Fatal("no verification ran")
	}
	if !res.Verify.Ok() {
		t.Fatalf("hybrid cnv run reported violations:\n%s", res.Verify.String())
	}
	if res.Stitch.Backend != BackendHybrid || res.Stitch.GDIters == 0 {
		t.Errorf("report backend=%q GDIters=%d, want hybrid with a GD budget",
			res.Stitch.Backend, res.Stitch.GDIters)
	}
}

// TestHybridCNVNoRegression: on the real cnvW1A1 problem the hybrid
// backend must not regress the pure annealer on the objective the
// stitcher actually minimizes — wirelength plus unplaced penalties —
// and must place at least as many instances (aggregated over three
// seeds; the SA is stochastic per seed).
func TestHybridCNVNoRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("cnv flow in -short mode")
	}
	fixtures(t)
	const penalty = 2000 // stitch.DefaultConfig().UnplacedPenalty
	var annealTotal, hybridTotal float64
	var annealPlaced, hybridPlaced int
	for seed := int64(0); seed < 3; seed++ {
		f := verifyFlow(t)
		f.SetSearch(0.5, 0.02, 3.0)
		a := stitchCNV(t, f, BackendAnneal, seed)
		h := stitchCNV(t, f, BackendHybrid, seed)
		annealTotal += a.FinalCost + float64(a.Unplaced)*penalty
		hybridTotal += h.FinalCost + float64(h.Unplaced)*penalty
		annealPlaced += a.Placed
		hybridPlaced += h.Placed
	}
	if hybridTotal > annealTotal {
		t.Errorf("hybrid total cost %.0f regressed the annealer's %.0f", hybridTotal/3, annealTotal/3)
	}
	if hybridPlaced < annealPlaced {
		t.Errorf("hybrid placed %d instances vs the annealer's %d", hybridPlaced/3, annealPlaced/3)
	}
}

func stitchCNV(t *testing.T, f *Flow, backend string, seed int64) StitchReport {
	t.Helper()
	so := StitchOptions{Seed: seed, Anneal: AnnealOptions{Iterations: 40000, Chains: 4}, Backend: backend}
	if err := so.Validate(); err != nil {
		t.Fatal(err)
	}
	return f.stitchDesign(fix.stitch20, so, nil, nil)
}

// TestHeadlineTracePinLeavesChainTrace: the headline Trace ends pinned
// to FinalCost (penalties excluded) so IterToReach(FinalCost) resolves,
// while the winning chain's own trace keeps the total the annealer saw
// (penalties included). The stitcher hands out both over one backing
// array, so the pin must land on a copy. xc7z020 is overfull (unplaced
// instances, so the two costs differ), and the analytic backend's
// single iteration-0 sample is one the two traces hold in common rather
// than one appended to the headline alone.
func TestHeadlineTracePinLeavesChainTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("cnv flow in -short mode")
	}
	fixtures(t)
	f := verifyFlow(t)
	last := func(tr []CostPoint) CostPoint { return tr[len(tr)-1] }
	so := StitchOptions{Seed: 1, Backend: BackendAnalytic}
	rep := f.stitchDesign(fix.stitch20, so, nil, nil)
	if rep.Unplaced == 0 {
		t.Fatalf("%q: design fits, the pinned and the annealer's cost coincide", so.Backend)
	}
	if got := last(rep.Trace).Cost; got != rep.FinalCost {
		t.Errorf("%q: headline trace ends at %v, want FinalCost %v", so.Backend, got, rep.FinalCost)
	}
	winner := -1
	for i, ch := range rep.Chains {
		if ch.FinalCost == rep.FinalCost && last(ch.Trace).Iter == last(rep.Trace).Iter {
			winner = i
		}
	}
	if winner < 0 {
		t.Fatalf("%q: no chain ends on the headline trace's last sample", so.Backend)
	}
	// stitch.DefaultConfig().UnplacedPenalty is 2000 per instance.
	if got := last(rep.Chains[winner].Trace).Cost; got < rep.FinalCost+1000*float64(rep.Unplaced) {
		t.Errorf("%q: winning chain's trace ends at %v, FinalCost is %v with %d unplaced: the headline pin wrote through",
			so.Backend, got, rep.FinalCost, rep.Unplaced)
	}
}
