package stitch

import (
	"testing"
	"testing/quick"

	"macroflow/internal/fabric"
	"macroflow/internal/place"
)

// rectBlock builds a solid w x h block compatible with plain CLB columns.
func rectBlock(t *testing.T, dev *fabric.Device, name string, w, h int) Block {
	t.Helper()
	// Find a run of w CLB columns.
	for x := 1; x+w < dev.NumCols(); x++ {
		ok := true
		for i := 0; i < w; i++ {
			if !dev.IsCLBColumn(x + i) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		b := Block{Name: name, HomeX: x, Width: w, Height: h}
		for i := 0; i < w; i++ {
			b.Spans = append(b.Spans, ColSpan{DX: i, Min: 0, Max: h - 1})
		}
		return b
	}
	t.Fatalf("no CLB run of width %d", w)
	return Block{}
}

// spanBits ORs the span masks of rows [lo, hi] into a fresh column of
// nw words, the way occupancy.set applies them.
func spanBits(nw, lo, hi int) []uint64 {
	o := &occupancy{words: nw, bits: make([]uint64, nw)}
	o.set(0, lo, hi, true)
	return o.bits
}

func TestSpanMasks(t *testing.T) {
	cases := []struct {
		lo, hi int
		want   []uint64
	}{
		{0, 3, []uint64{0xF, 0}},
		{64, 65, []uint64{0, 0x3}},
		{63, 63, []uint64{1 << 63, 0}},
		{0, 63, []uint64{^uint64(0), 0}},
		{60, 70, []uint64{0xF000000000000000, 0x7F}},
		{0, 127, []uint64{^uint64(0), ^uint64(0)}},
	}
	for _, c := range cases {
		got := spanBits(2, c.lo, c.hi)
		if got[0] != c.want[0] || got[1] != c.want[1] {
			t.Errorf("rows [%d, %d] = %x, want %x", c.lo, c.hi, got, c.want)
		}
	}
	w0, w1, first, last := spanMasks(60, 200)
	if w0 != 0 || w1 != 3 || first != 0xF000000000000000 || last != 0x1FF {
		t.Errorf("spanMasks(60, 200) = %d %d %x %x", w0, w1, first, last)
	}
}

func TestOccupancyConflict(t *testing.T) {
	dev := fabric.XC7Z020()
	o := newOccupancy(dev)
	o.set(3, 10, 20, true)
	if !o.conflict(3, 15, 25) {
		t.Error("overlapping interval must conflict")
	}
	if o.conflict(3, 21, 30) {
		t.Error("adjacent interval must not conflict")
	}
	if o.conflict(4, 10, 20) {
		t.Error("other column must not conflict")
	}
	o.set(3, 10, 20, false)
	if o.conflict(3, 15, 25) {
		t.Error("cleared interval must not conflict")
	}
}

func TestNewBlockTrimsEmptyColumns(t *testing.T) {
	pl := &place.Placement{
		Rect: fabric.Rect{X0: 5, Y0: 0, X1: 9, Y1: 9},
		Footprint: place.Footprint{
			Width: 5, Rows: 10,
			Cols: []place.RowSpan{
				{Used: 0},
				{Min: 2, Max: 7, Used: 10},
				{Used: 0},
				{Min: 0, Max: 9, Used: 12},
				{Used: 0},
			},
		},
	}
	b := NewBlock("t", pl)
	if b.HomeX != 6 {
		t.Errorf("HomeX = %d, want 6 (leading empty trimmed)", b.HomeX)
	}
	if b.Width != 3 {
		t.Errorf("Width = %d, want 3", b.Width)
	}
	if len(b.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(b.Spans))
	}
	if b.Height != 10 {
		t.Errorf("Height = %d, want 10", b.Height)
	}
	if b.Area() != 16 {
		t.Errorf("Area = %d, want 16", b.Area())
	}
}

func smallProblem(t *testing.T, n int) *Problem {
	dev := fabric.XC7Z020()
	p := &Problem{Dev: dev}
	p.Blocks = append(p.Blocks, rectBlock(t, dev, "a", 2, 8))
	p.Blocks = append(p.Blocks, rectBlock(t, dev, "b", 3, 6))
	for i := 0; i < n; i++ {
		p.Instances = append(p.Instances, Instance{Name: "i", Block: i % 2})
		if i > 0 {
			p.Nets = append(p.Nets, Net{From: i - 1, To: i, Weight: 1})
		}
	}
	return p
}

func TestRunPlacesEverythingWithRoom(t *testing.T) {
	p := smallProblem(t, 20)
	res := Run(p, Config{Seed: 1, Iterations: 20000})
	if res.Unplaced != 0 {
		t.Fatalf("unplaced = %d, want 0 (ample device)", res.Unplaced)
	}
	if res.Placed != 20 {
		t.Fatalf("placed = %d, want 20", res.Placed)
	}
	// Verify no overlaps among final origins.
	occ := newOccupancy(p.Dev)
	for ii, o := range res.Origins {
		b := &p.Blocks[p.Instances[ii].Block]
		for _, s := range b.Spans {
			if occ.conflict(o.X+s.DX, o.Y+s.Min, o.Y+s.Max) {
				t.Fatalf("instance %d overlaps at (%d,%d)", ii, o.X, o.Y)
			}
			occ.set(o.X+s.DX, o.Y+s.Min, o.Y+s.Max, true)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(smallProblem(t, 12), Config{Seed: 7, Iterations: 5000})
	b := Run(smallProblem(t, 12), Config{Seed: 7, Iterations: 5000})
	if a.FinalCost != b.FinalCost || a.Placed != b.Placed {
		t.Error("same seed must reproduce the same result")
	}
	for i := range a.Origins {
		if a.Origins[i] != b.Origins[i] {
			t.Fatalf("origin %d differs", i)
		}
	}
}

func TestSAImprovesOnGreedy(t *testing.T) {
	p := smallProblem(t, 30)
	res := Run(p, Config{Seed: 2, Iterations: 40000})
	if res.FinalCost >= res.InitialCost {
		t.Errorf("SA must improve cost: initial %.0f final %.0f", res.InitialCost, res.FinalCost)
	}
}

func TestCompatibleRelocationOnly(t *testing.T) {
	dev := fabric.XC7Z020()
	p := &Problem{Dev: dev}
	// A block whose span covers a BRAM column can only sit where the
	// BRAM column repeats; verify all final origins are compatible.
	bx := -1
	for x := 2; x < dev.NumCols()-2; x++ {
		if dev.KindAt(x) == fabric.ColBRAM {
			bx = x
			break
		}
	}
	b := Block{Name: "bram", HomeX: bx - 1, Width: 3, Height: 10}
	b.Spans = []ColSpan{{DX: 0, Min: 0, Max: 9}, {DX: 1, Min: 0, Max: 9}, {DX: 2, Min: 0, Max: 9}}
	p.Blocks = append(p.Blocks, b)
	for i := 0; i < 4; i++ {
		p.Instances = append(p.Instances, Instance{Name: "x", Block: 0})
	}
	res := Run(p, Config{Seed: 3, Iterations: 10000})
	for ii, o := range res.Origins {
		if !o.Placed {
			continue
		}
		if !dev.SignatureMatches(b.HomeX, b.Width, o.X) {
			t.Fatalf("instance %d at incompatible column %d", ii, o.X)
		}
		if o.Y%fabric.BRAMRows != 0 {
			t.Fatalf("instance %d at misaligned row %d over BRAM", ii, o.Y)
		}
	}
}

func TestOverSubscribedDeviceLeavesUnplaced(t *testing.T) {
	dev := fabric.XC7Z020()
	p := &Problem{Dev: dev}
	big := rectBlock(t, dev, "big", 4, dev.Rows)
	p.Blocks = append(p.Blocks, big)
	// More instances than the device can hold (full-height columns).
	n := dev.NumCols() // definitely too many 4-wide full-height blocks
	for i := 0; i < n; i++ {
		p.Instances = append(p.Instances, Instance{Name: "big", Block: 0})
	}
	res := Run(p, Config{Seed: 4, Iterations: 5000})
	if res.Unplaced == 0 {
		t.Error("oversubscription must leave instances unplaced")
	}
	if res.Placed+res.Unplaced != n {
		t.Errorf("placed+unplaced = %d, want %d", res.Placed+res.Unplaced, n)
	}
}

// Property: the span masks cover exactly rows lo..hi across words, and
// conflict/clear see the same interval set wrote.
func TestSpanMasksBitCountProperty(t *testing.T) {
	f := func(lo16 uint16, span8 uint8) bool {
		lo := int(lo16) % 300
		hi := lo + int(span8)%140
		o := &occupancy{words: 7, bits: make([]uint64, 7)}
		o.set(0, lo, hi, true)
		total := 0
		for r := 0; r < 7*64; r++ {
			set := o.bits[r>>6]>>uint(r&63)&1 == 1
			if set != (r >= lo && r <= hi) {
				return false
			}
			if set {
				total++
			}
		}
		if total != hi-lo+1 || !o.conflict(0, lo, lo) || !o.conflict(0, hi, hi) ||
			(lo > 0 && o.conflict(0, 0, lo-1)) || o.conflict(0, hi+1, 7*64-1) {
			return false
		}
		o.set(0, lo, hi, false)
		return !o.conflict(0, 0, 7*64-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLargestInHistogram(t *testing.T) {
	cases := []struct {
		hs   []int
		want int
	}{
		{[]int{2, 1, 5, 6, 2, 3}, 10},
		{[]int{1, 1, 1, 1}, 4},
		{[]int{4}, 4},
		{[]int{}, 0},
		{[]int{0, 0}, 0},
		{[]int{3, 0, 3}, 3},
	}
	for _, c := range cases {
		if got := largestInHistogram(c.hs, nil); got != c.want {
			t.Errorf("largestInHistogram(%v) = %d, want %d", c.hs, got, c.want)
		}
	}
}

func TestFragmentationReported(t *testing.T) {
	p := smallProblem(t, 8)
	res := Run(p, Config{Seed: 6, Iterations: 5000})
	clb := 0
	for x := 0; x < p.Dev.NumCols(); x++ {
		if p.Dev.IsCLBColumn(x) {
			clb += p.Dev.Rows
		}
	}
	occupied := 0
	for ii, o := range res.Origins {
		if o.Placed {
			occupied += p.Blocks[p.Instances[ii].Block].Area()
		}
	}
	if res.FreeTiles != clb-occupied {
		t.Errorf("FreeTiles = %d, want %d", res.FreeTiles, clb-occupied)
	}
	if res.LargestFreeRect <= 0 || res.LargestFreeRect > res.FreeTiles {
		t.Errorf("LargestFreeRect = %d out of range", res.LargestFreeRect)
	}
}

func TestSwapMovesPreserveLegality(t *testing.T) {
	// A tight problem exercises swaps; final state must be overlap-free,
	// and the bitmap must agree with the origins at the chain's end
	// (TestMoveLoopKeepsBitmapExact checks it move by move).
	p := smallProblem(t, 40)
	checkChains(t)
	res := Run(p, Config{Seed: 9, Iterations: 30000})
	occ := newOccupancy(p.Dev)
	for ii, o := range res.Origins {
		if !o.Placed {
			continue
		}
		b := &p.Blocks[p.Instances[ii].Block]
		for _, s := range b.Spans {
			if occ.conflict(o.X+s.DX, o.Y+s.Min, o.Y+s.Max) {
				t.Fatalf("instance %d overlaps after swaps", ii)
			}
			occ.set(o.X+s.DX, o.Y+s.Min, o.Y+s.Max, true)
		}
	}
}

func TestRunEmptyProblem(t *testing.T) {
	p := &Problem{Dev: fabric.XC7Z020()}
	res := Run(p, Config{Seed: 1, Iterations: 100})
	if res.Placed != 0 || res.Unplaced != 0 || res.FinalCost != 0 {
		t.Errorf("empty problem must be a no-op: %+v", res)
	}
}

// TestRunRefusesOffGridCosts: a net weight off the 1/16 grid or an
// anchor point off the half-tile grid has no exact cost unit, and Run
// panics on it before any move.
func TestRunRefusesOffGridCosts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Problem)
	}{
		{"net-weight-0.1", func(p *Problem) { p.Nets[0].Weight = 0.1 }},
		{"anchor-x-0.3", func(p *Problem) { p.Anchors = append(p.Anchors, Anchor{Inst: 0, X: 0.3, Y: 2, Weight: 1}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := smallProblem(t, 4)
			tc.mutate(p)
			defer func() {
				if recover() == nil {
					t.Error("Run accepted an off-grid cost term")
				}
			}()
			Run(p, Config{Seed: 1, Iterations: 100})
		})
	}
}
