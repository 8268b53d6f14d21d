package place

import (
	"testing"

	"macroflow/internal/fabric"
)

// TestWarmStartIdenticalRect checks the fast path: re-placing a module
// into the exact rectangle of a previous placement transplants it
// verbatim (same cell coordinates, Verify-clean).
func TestWarmStartIdenticalRect(t *testing.T) {
	dev := fabric.XC7Z020()
	m := sampleModule(t)
	rep := QuickPlace(m)
	r := fabric.Rect{X0: 1, Y0: 0, X1: 20, Y1: 40}
	cold, err := Place(dev, m, rep, r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Place(dev, m, rep, r, Options{Warm: cold})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.CellAt) != len(cold.CellAt) {
		t.Fatalf("cell count changed: %d vs %d", len(warm.CellAt), len(cold.CellAt))
	}
	for i := range warm.CellAt {
		if warm.CellAt[i] != cold.CellAt[i] {
			t.Fatalf("cell %d moved: %v vs %v", i, warm.CellAt[i], cold.CellAt[i])
		}
	}
	if err := Verify(dev, warm); err != nil {
		t.Fatalf("transplanted placement fails audit: %v", err)
	}
}

// TestWarmStartLargerRect checks that a placement transplants into any
// rectangle that still contains it, and stays legal under Verify.
func TestWarmStartLargerRect(t *testing.T) {
	dev := fabric.XC7Z020()
	m := sampleModule(t)
	rep := QuickPlace(m)
	small := fabric.Rect{X0: 1, Y0: 0, X1: 20, Y1: 40}
	cold, err := Place(dev, m, rep, small, Options{})
	if err != nil {
		t.Fatal(err)
	}
	big := fabric.Rect{X0: 1, Y0: 0, X1: 30, Y1: 50}
	warm, err := Place(dev, m, rep, big, Options{Warm: cold})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Rect != big {
		t.Fatalf("warm placement rect %v, want %v", warm.Rect, big)
	}
	for i := range warm.CellAt {
		if warm.CellAt[i] != cold.CellAt[i] {
			t.Fatalf("cell %d moved during transplant", i)
		}
	}
	if err := Verify(dev, warm); err != nil {
		t.Fatalf("transplanted placement fails audit: %v", err)
	}
}

// TestWarmStartClippedFallsBackCold checks the audit path: a warm hint
// whose cells stick out of the new rectangle is rejected and the cold
// packer produces a fresh legal placement instead.
func TestWarmStartClippedFallsBackCold(t *testing.T) {
	dev := fabric.XC7Z020()
	m := sampleModule(t)
	rep := QuickPlace(m)
	wide := fabric.Rect{X0: 1, Y0: 0, X1: 25, Y1: 30}
	cold, err := Place(dev, m, rep, wide, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A rectangle that cannot contain the old placement's spread.
	tall := fabric.Rect{X0: 1, Y0: 0, X1: 8, Y1: 120}
	pl, err := Place(dev, m, rep, tall, Options{Warm: cold})
	if err != nil {
		t.Fatalf("cold fallback should still place: %v", err)
	}
	if pl.Rect != tall {
		t.Fatalf("placement rect %v, want %v", pl.Rect, tall)
	}
	if err := Verify(dev, pl); err != nil {
		t.Fatalf("fallback placement fails audit: %v", err)
	}
}

// TestWarmStartWrongModuleFallsBackCold checks that a warm hint from a
// different module (cell-count mismatch) is ignored.
func TestWarmStartWrongModuleFallsBackCold(t *testing.T) {
	dev := fabric.XC7Z020()
	m := sampleModule(t)
	rep := QuickPlace(m)
	r := fabric.Rect{X0: 1, Y0: 0, X1: 20, Y1: 40}
	cold, err := Place(dev, m, rep, r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bogus := &Placement{
		Module: cold.Module,
		Rect:   cold.Rect,
		CellAt: cold.CellAt[:len(cold.CellAt)-1],
	}
	pl, err := Place(dev, m, rep, r, Options{Warm: bogus})
	if err != nil {
		t.Fatalf("cold fallback should still place: %v", err)
	}
	if len(pl.CellAt) != len(m.Cells) {
		t.Fatalf("fallback placed %d cells, want %d", len(pl.CellAt), len(m.Cells))
	}
	if err := Verify(dev, pl); err != nil {
		t.Fatalf("fallback placement fails audit: %v", err)
	}
}

// TestWarmStartSkipsColdTables: a warm start that transplants cleanly
// must not pay for anything only the cold packer reads — the content
// seed (a hash of the whole module), the random source, the packing
// order tables. The cache-rebuild path is nothing but such warm starts.
func TestWarmStartSkipsColdTables(t *testing.T) {
	dev := fabric.XC7Z020()
	m := sampleModule(t)
	rep := QuickPlace(m)
	r := fabric.Rect{X0: 1, Y0: 0, X1: 20, Y1: 40}
	cold, err := Place(dev, m, rep, r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(m, rep)
	if _, err := plan.Place(dev, r, Options{Warm: cold}); err != nil {
		t.Fatal(err)
	}
	if plan.driverStart != nil || plan.seed != 0 {
		t.Fatal("a clean transplant built the cold packer's tables")
	}
	if p := plan.probe; p.rng != nil || len(p.sites) != 0 {
		t.Fatal("a clean transplant seeded a random source or built site tables")
	}
	// A rectangle the old placement does not fit falls back to the cold
	// packer, which builds them then.
	_, _ = plan.Place(dev, fabric.Rect{X0: 1, Y0: 0, X1: 12, Y1: 30}, Options{Warm: cold})
	if plan.driverStart == nil {
		t.Fatal("the cold fallback ran without its tables")
	}
}
