package fabric

import (
	"testing"
	"testing/quick"
)

func TestXC7Z020Capacities(t *testing.T) {
	d := XC7Z020()
	rc := d.Resources()
	// Real part: 13,300 slices, 140 RAMB36, 220 DSP. Allow the grid
	// quantization documented in DESIGN.md (a few percent).
	if got, want := rc.Slices(), 13300; !within(got, want, 0.02) {
		t.Errorf("slices = %d, want ~%d", got, want)
	}
	if !within(rc.BRAM, 140, 0.08) {
		t.Errorf("BRAM = %d, want ~140", rc.BRAM)
	}
	if !within(rc.DSP, 220, 0.10) {
		t.Errorf("DSP = %d, want ~220", rc.DSP)
	}
	if got := d.ClockRegions(); got != 3 {
		t.Errorf("clock regions = %d, want 3", got)
	}
}

func TestXC7Z045Capacities(t *testing.T) {
	d := XC7Z045()
	rc := d.Resources()
	if got, want := rc.Slices(), 54650; !within(got, want, 0.02) {
		t.Errorf("slices = %d, want ~%d", got, want)
	}
	if !within(rc.BRAM, 545, 0.05) {
		t.Errorf("BRAM = %d, want ~545", rc.BRAM)
	}
	if !within(rc.DSP, 900, 0.08) {
		t.Errorf("DSP = %d, want ~900", rc.DSP)
	}
	if got := d.ClockRegions(); got != 7 {
		t.Errorf("clock regions = %d, want 7", got)
	}
}

func within(got, want int, tol float64) bool {
	d := float64(got) - float64(want)
	if d < 0 {
		d = -d
	}
	return d <= tol*float64(want)
}

func TestDeviceEdgesAreIO(t *testing.T) {
	for _, d := range []*Device{XC7Z020(), XC7Z045()} {
		if d.Columns[0] != ColIO || d.Columns[len(d.Columns)-1] != ColIO {
			t.Errorf("%s: device must be bracketed by IO columns", d.Name)
		}
	}
}

func TestColumnResourcesBRAMAlignment(t *testing.T) {
	d := XC7Z020()
	bx := -1
	for x, k := range d.Columns {
		if k == ColBRAM {
			bx = x
			break
		}
	}
	if bx < 0 {
		t.Fatal("no BRAM column found")
	}
	// A full-pitch window contains exactly one RAMB36.
	if got := d.ColumnResources(bx, 0, BRAMRows-1).BRAM; got != 1 {
		t.Errorf("aligned %d-row window: BRAM = %d, want 1", BRAMRows, got)
	}
	// A misaligned window of the same height contains none.
	if got := d.ColumnResources(bx, 1, BRAMRows).BRAM; got != 0 {
		t.Errorf("misaligned window: BRAM = %d, want 0", got)
	}
	// Ten aligned rows contain two.
	if got := d.ColumnResources(bx, 0, 2*BRAMRows-1).BRAM; got != 2 {
		t.Errorf("two-pitch window: BRAM = %d, want 2", got)
	}
}

func TestCLBMColumnSliceTypes(t *testing.T) {
	d := XC7Z020()
	for x, k := range d.Columns {
		switch k {
		case ColCLBM:
			if !d.SliceTypeAt(x, 0) || d.SliceTypeAt(x, 1) {
				t.Fatalf("col %d: CLBM must have slice 0 = M, slice 1 = L", x)
			}
			rc := d.ColumnResources(x, 0, 9)
			if rc.SlicesM != 10 || rc.SlicesL != 10 {
				t.Fatalf("col %d: got %+v, want 10 M + 10 L", x, rc)
			}
		case ColCLBL:
			if d.SliceTypeAt(x, 0) || d.SliceTypeAt(x, 1) {
				t.Fatalf("col %d: CLBL has no M slices", x)
			}
		}
	}
}

func TestCoversMSpillsIntoL(t *testing.T) {
	have := ResourceCount{SlicesL: 10, SlicesM: 10}
	if !have.Covers(ResourceCount{SlicesL: 15, SlicesM: 5}) {
		t.Error("spare M slices must be able to cover L demand")
	}
	if have.Covers(ResourceCount{SlicesL: 5, SlicesM: 11}) {
		t.Error("L slices must not cover M demand")
	}
	if have.Covers(ResourceCount{SlicesL: 21}) {
		t.Error("total demand above capacity must not be covered")
	}
}

func TestRectGeometry(t *testing.T) {
	r := Rect{2, 3, 5, 10}
	if r.Width() != 4 || r.Height() != 8 || r.Area() != 32 {
		t.Fatalf("unexpected geometry: w=%d h=%d a=%d", r.Width(), r.Height(), r.Area())
	}
	if !r.Contains(2, 3) || !r.Contains(5, 10) || r.Contains(6, 3) || r.Contains(2, 11) {
		t.Error("Contains boundary behavior wrong")
	}
}

func TestRectResourcesClipsToDevice(t *testing.T) {
	d := XC7Z020()
	whole := d.Resources()
	huge := d.RectResources(Rect{-10, -10, 1000, 1000})
	if huge != whole {
		t.Errorf("oversized rect resources %+v != device %+v", huge, whole)
	}
	if got := d.RectResources(Rect{5, 5, 4, 4}); got != (ResourceCount{}) {
		t.Errorf("degenerate rect must be empty, got %+v", got)
	}
}

func TestSignatureMatchesSelf(t *testing.T) {
	d := XC7Z020()
	for x0 := 1; x0 < d.NumCols()-5; x0 += 7 {
		if !d.SignatureMatches(x0, 5, x0) {
			t.Fatalf("signature at %d must match itself", x0)
		}
	}
}

func TestCompatibleOriginsShareSignature(t *testing.T) {
	d := XC7Z045()
	homeX, width := 10, 6
	origins := d.CompatibleOriginsX(homeX, width)
	if len(origins) == 0 {
		t.Fatal("a span must be compatible with at least its home position")
	}
	want := d.ColumnSignature(homeX, homeX+width-1)
	foundHome := false
	for _, x := range origins {
		got := d.ColumnSignature(x, x+width-1)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("origin %d signature mismatch at %d", x, i)
			}
		}
		if x == homeX {
			foundHome = true
		}
	}
	if !foundHome {
		t.Error("home origin missing from compatible origins")
	}
}

func TestRowShiftCompatibility(t *testing.T) {
	d := XC7Z020()
	bx := -1
	for x, k := range d.Columns {
		if k == ColBRAM {
			bx = x
		}
	}
	if !d.RowShiftCompatible(bx, bx, BRAMRows) {
		t.Error("pitch-aligned shift over BRAM must be compatible")
	}
	if d.RowShiftCompatible(bx, bx, BRAMRows-1) {
		t.Error("misaligned shift over BRAM must be rejected")
	}
	// A pure-CLB span shifts freely.
	lx := -1
	for x, k := range d.Columns {
		if k == ColCLBL {
			lx = x
			break
		}
	}
	if !d.RowShiftCompatible(lx, lx, 1) {
		t.Error("CLB columns must shift by any amount")
	}
}

func TestClockColumnsIn(t *testing.T) {
	d := XC7Z020()
	all := d.ClockColumnsIn(Rect{0, 0, d.NumCols() - 1, d.Rows - 1})
	if all != 1 {
		t.Fatalf("xc7z020 model must have exactly 1 clock column, got %d", all)
	}
}

// Property: for any sub-rectangle, resources never exceed the device total
// and splitting a rect horizontally conserves resources exactly.
func TestRectResourceConservation(t *testing.T) {
	d := XC7Z020()
	f := func(x0, y0, w, h, split uint8) bool {
		r := Rect{
			X0: int(x0) % d.NumCols(),
			Y0: int(y0) % d.Rows,
		}
		r.X1 = r.X0 + int(w)%8
		r.Y1 = r.Y0 + int(h)%40
		if r.X1 >= d.NumCols() {
			r.X1 = d.NumCols() - 1
		}
		if r.Y1 >= d.Rows {
			r.Y1 = d.Rows - 1
		}
		if !r.Valid() {
			return true
		}
		whole := d.RectResources(r)
		dev := d.Resources()
		if whole.Slices() > dev.Slices() || whole.BRAM > dev.BRAM {
			return false
		}
		if r.Width() < 2 {
			return true
		}
		mid := r.X0 + 1 + int(split)%(r.Width()-1)
		left := d.RectResources(Rect{r.X0, r.Y0, mid - 1, r.Y1})
		right := d.RectResources(Rect{mid, r.Y0, r.X1, r.Y1})
		return left.Add(right) == whole
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewDeviceColumnCounts(t *testing.T) {
	l := Layout{Name: "t", CLBLCols: 10, CLBMCols: 5, BRAMCols: 2, DSPCols: 1, ClockCols: 1, Rows: 20, ClockRegionRows: 10}
	d := NewDevice(l)
	counts := map[ColumnKind]int{}
	for _, k := range d.Columns {
		counts[k]++
	}
	if counts[ColCLBL] != 10 || counts[ColCLBM] != 5 || counts[ColBRAM] != 2 ||
		counts[ColDSP] != 1 || counts[ColClock] != 1 || counts[ColIO] != 2 {
		t.Errorf("column counts wrong: %v", counts)
	}
}

func TestColumnKindString(t *testing.T) {
	got := ""
	for k := ColumnKind(0); k < numColumnKinds; k++ {
		got += k.String()
	}
	if got != "LMBDKI" {
		t.Errorf("kind mnemonics = %q", got)
	}
	if ColumnKind(99).String() != "?" {
		t.Error("unknown kind must stringify as ?")
	}
}

func TestDevicePeriodicityEnablesRelocation(t *testing.T) {
	// The unit-repetition construction must give mid-width spans several
	// compatible origins — pre-implemented blocks depend on it.
	for _, d := range []*Device{XC7Z020(), XC7Z045()} {
		// A span starting right after the left IO column, 6 columns wide.
		origins := d.CompatibleOriginsX(1, 6)
		if len(origins) < 3 {
			t.Errorf("%s: only %d compatible origins for a 6-wide span", d.Name, len(origins))
		}
	}
}

func TestDSPColumnsAtEdge(t *testing.T) {
	// DSP columns are clubbed before the right IO column so the CLB/BRAM
	// units stay identical.
	d := XC7Z020()
	lastInterior := d.NumCols() - 2
	seenDSP := false
	for x := lastInterior; x > 0; x-- {
		if d.Columns[x] == ColDSP {
			seenDSP = true
			continue
		}
		if seenDSP && d.Columns[x] == ColDSP {
			t.Fatal("unreachable")
		}
		break
	}
	if !seenDSP {
		t.Error("no DSP band at the right edge")
	}
	for x := 1; x < lastInterior-8; x++ {
		if d.Columns[x] == ColDSP {
			t.Errorf("stray DSP column at %d (interior)", x)
		}
	}
}
