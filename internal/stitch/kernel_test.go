package stitch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"macroflow/internal/fabric"
)

// checkIncremental asserts the incremental state against a full
// recomputation: every cached net cost and the running total, with ==,
// and the occupancy bitmap rebuilt from the origins — a stale footprint
// bit left by a move is invisible to the cost checks.
func (a *annealer) checkIncremental(it int) {
	want := newOccupancy(a.p.Dev)
	for ii, o := range a.origins {
		if !o.Placed {
			continue
		}
		for _, s := range a.p.Blocks[a.p.Instances[ii].Block].Spans {
			want.set(o.X+s.DX, o.Y+s.Min, o.Y+s.Max, true)
		}
	}
	for i, w := range want.bits {
		if got := a.occ.bits[i]; got != w {
			panic(fmt.Sprintf("stitch: occupancy drift at iter %d: column %d word %d holds %#x, origins say %#x",
				it, i/want.words, i%want.words, got, w))
		}
	}
	for ni := range a.netCost0 {
		if got := a.computeNetCost(ni); got != a.netCost0[ni] {
			panic(fmt.Sprintf("stitch: net %d cost cache drift at iter %d: cached %d, recomputed %d units",
				ni, it, a.netCost0[ni], got))
		}
	}
	if full := a.totalCost(); full != a.cost {
		panic(fmt.Sprintf("stitch: incremental cost drift at iter %d: running %d, recomputed %d units",
			it, a.cost, full))
	}
}

// checkChains runs checkIncremental on every chain at each exchange
// barrier and at each chain's end, until the test ends, and returns the
// number of checks made so far.
func checkChains(tb testing.TB) func() int64 {
	var n atomic.Int64
	checkChain = func(a *annealer) {
		a.checkIncremental(a.moves)
		n.Add(1)
	}
	tb.Cleanup(func() { checkChain = nil })
	return n.Load
}

// The references below are the loops the legality kernel replaced, kept
// only so the tests can compare against them. They share nothing with
// the kernel: rows are tested bit by bit, and the row-shift rule is
// asked of the device at the target columns on every call.

func refFits(a *annealer, bidx, x, y int) bool {
	b := &a.p.Blocks[bidx]
	dev := a.p.Dev
	if y < 0 || y+b.Height > dev.Rows {
		return false
	}
	if len(b.Spans) > 0 && !dev.RowShiftCompatible(x, x+b.Width-1, y) {
		return false
	}
	for _, s := range b.Spans {
		for r := y + s.Min; r <= y+s.Max; r++ {
			if a.occ.bits[(x+s.DX)*a.occ.words+r>>6]>>uint(r&63)&1 != 0 {
				return false
			}
		}
	}
	return true
}

func refFirstFit(a *annealer, bidx int) (bool, int, int) {
	for _, x := range a.pr.originsX[bidx] {
		for y := 0; y+a.p.Blocks[bidx].Height <= a.p.Dev.Rows; y++ {
			if refFits(a, bidx, x, y) {
				return true, x, y
			}
		}
	}
	return false, 0, 0
}

func refSnapToLegal(a *annealer, bidx, ox, oy int) (bool, int, int) {
	b := &a.p.Blocks[bidx]
	xs := a.pr.originsX[bidx]
	if len(xs) == 0 || b.Height > a.p.Dev.Rows {
		return false, 0, 0
	}
	maxY := a.p.Dev.Rows - b.Height
	cy := oy
	if cy < 0 {
		cy = 0
	}
	if cy > maxY {
		cy = maxY
	}
	bestDist := math.MaxInt64
	bestX, bestY := 0, 0
	r := sort.SearchInts(xs, ox)
	l := r - 1
	for l >= 0 || r < len(xs) {
		var x int
		switch {
		case l < 0:
			x, r = xs[r], r+1
		case r >= len(xs):
			x, l = xs[l], l-1
		case ox-xs[l] < xs[r]-ox:
			x, l = xs[l], l-1
		default:
			x, r = xs[r], r+1
		}
		dx := x - ox
		if dx < 0 {
			dx = -dx
		}
		if dx >= bestDist {
			break
		}
		budget := bestDist - dx - 1
		lim := cy
		if maxY-cy > lim {
			lim = maxY - cy
		}
		if budget > lim {
			budget = lim
		}
		for dy := 0; dy <= budget; dy++ {
			y := cy - dy
			if y >= 0 && refFits(a, bidx, x, y) {
				bestDist, bestX, bestY = dx+dy, x, y
				break
			}
			if dy == 0 {
				continue
			}
			y = cy + dy
			if y <= maxY && refFits(a, bidx, x, y) {
				bestDist, bestX, bestY = dx+dy, x, y
				break
			}
		}
	}
	if bestDist == math.MaxInt64 {
		return false, 0, 0
	}
	return true, bestX, bestY
}

// firstColumn returns the first column of the given kind.
func firstColumn(dev *fabric.Device, kind fabric.ColumnKind) int {
	for x := 0; x < dev.NumCols(); x++ {
		if dev.KindAt(x) == kind {
			return x
		}
	}
	return -1
}

// edgeBlocks are the footprints the cnv and synthetic problems may not
// contain: BRAM- and DSP-spanning (pitch 5), spans straddling a word
// boundary, a span longer than a word, origin-relative gaps below the
// first occupied row, taller than the device, and no spans at all.
func edgeBlocks(dev *fabric.Device) []Block {
	var out []Block
	for _, kind := range []fabric.ColumnKind{fabric.ColBRAM, fabric.ColDSP} {
		if x := firstColumn(dev, kind); x > 0 && x+1 < dev.NumCols() {
			out = append(out, Block{
				Name: "pitch5", HomeX: x - 1, Width: 3, Height: 15,
				Spans: []ColSpan{{DX: 0, Min: 0, Max: 14}, {DX: 1, Min: 0, Max: 9}, {DX: 2, Min: 3, Max: 12}},
			})
		}
	}
	clb := firstColumn(dev, fabric.ColCLBL)
	out = append(out,
		Block{Name: "straddle", HomeX: clb, Width: 1, Height: 71,
			Spans: []ColSpan{{DX: 0, Min: 60, Max: 70}}},
		Block{Name: "long", HomeX: clb, Width: 1, Height: 97,
			Spans: []ColSpan{{DX: 0, Min: 1, Max: 96}}},
		Block{Name: "unit", HomeX: clb, Width: 1, Height: 1,
			Spans: []ColSpan{{DX: 0, Min: 0, Max: 0}}},
		Block{Name: "full", HomeX: clb, Width: 1, Height: dev.Rows,
			Spans: []ColSpan{{DX: 0, Min: 0, Max: dev.Rows - 1}}},
		Block{Name: "too-tall", HomeX: clb, Width: 1, Height: dev.Rows + 1,
			Spans: []ColSpan{{DX: 0, Min: 0, Max: dev.Rows - 1}}},
		Block{Name: "empty", HomeX: clb, Width: 0, Height: 7},
	)
	return out
}

// kernelProblems are the differential test's devices and block sets:
// the cnv blocks on the xc7z020 (150 rows, 3 words), the synthetic 10x
// blocks on the XC7Z045 (350 rows, 6 words) and on the upper member of
// its two-shard carve — each with the edge footprints appended. No row
// count is a multiple of 64, so every top word is partial.
func kernelProblems(t testing.TB) []*Problem {
	t.Helper()
	withEdges := func(dev *fabric.Device, blocks []Block) *Problem {
		p := &Problem{Dev: dev}
		p.Blocks = append(append(p.Blocks, blocks...), edgeBlocks(dev)...)
		for bi := range p.Blocks {
			p.Instances = append(p.Instances, Instance{Name: p.Blocks[bi].Name, Block: bi})
		}
		return p
	}
	z45 := fabric.XC7Z045()
	set, err := fabric.Shards(z45, 2)
	if err != nil {
		t.Fatal(err)
	}
	syn := Synthetic(z45, 10, 1).Blocks
	return []*Problem{
		withEdges(fabric.XC7Z020(), cnvMinCFProblem(t).Blocks),
		withEdges(z45, syn),
		withEdges(set.Members[1].Dev, syn),
	}
}

// randomOccupancy fills a's bitmap with random row intervals at the
// given density (expected occupied share of each column).
func randomOccupancy(a *annealer, rng *rand.Rand, density float64) {
	for i := range a.occ.bits {
		a.occ.bits[i] = 0
	}
	rows := a.p.Dev.Rows
	for col := 0; col < a.p.Dev.NumCols(); col++ {
		for filled := 0; float64(filled) < density*float64(rows); {
			lo := rng.Intn(rows)
			hi := lo + rng.Intn(1+rng.Intn(24))
			if hi >= rows {
				hi = rows - 1
			}
			a.occ.set(col, lo, hi, true)
			filled += hi - lo + 1
		}
	}
}

// TestLegalRowsMatchesFits is the differential proof of the kernel: for
// random occupancies, every block and every compatible column,
// legalRows' bit y is the bit-by-bit reference predicate at (x, y) — and
// the kernel's own single-point fits agrees — for every row, with no
// bit set at or above the device height; firstFit and snapToLegal
// return what the per-row scans they replaced return.
func TestLegalRowsMatchesFits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range kernelProblems(t) {
		a := newAnnealer(p, newPrep(p), DefaultConfig(), 1)
		for _, density := range []float64{0, 0.15, 0.6} {
			randomOccupancy(a, rng, density)
			for bidx := range p.Blocks {
				for _, x := range a.pr.originsX[bidx] {
					rows := append([]uint64(nil), a.legalRows(bidx, x)...)
					for y := 0; y < len(rows)*64; y++ {
						got := rows[y>>6]>>uint(y&63)&1 != 0
						want := refFits(a, bidx, x, y)
						if got != want || a.fits(bidx, x, y) != want {
							t.Fatalf("%s density %.2f block %s at (%d, %d): legalRows %v, fits %v, reference %v",
								p.Dev.Name, density, p.Blocks[bidx].Name, x, y, got, a.fits(bidx, x, y), want)
						}
					}
				}
				ok, x, y := a.firstFit(bidx)
				rok, rx, ry := refFirstFit(a, bidx)
				if ok != rok || x != rx || y != ry {
					t.Fatalf("%s density %.2f block %s: firstFit (%v, %d, %d), reference (%v, %d, %d)",
						p.Dev.Name, density, p.Blocks[bidx].Name, ok, x, y, rok, rx, ry)
				}
				for k := 0; k < 6; k++ {
					// Targets on, near and well off the device.
					ox := rng.Intn(p.Dev.NumCols()+20) - 10
					oy := rng.Intn(p.Dev.Rows+40) - 20
					ok, x, y := a.snapToLegal(bidx, ox, oy)
					rok, rx, ry := refSnapToLegal(a, bidx, ox, oy)
					if ok != rok || x != rx || y != ry {
						t.Fatalf("%s density %.2f block %s toward (%d, %d): snapToLegal (%v, %d, %d), reference (%v, %d, %d)",
							p.Dev.Name, density, p.Blocks[bidx].Name, ox, oy, ok, x, y, rok, rx, ry)
					}
				}
			}
		}
	}
}

// TestPitchMatchesRowShiftRule: the per-block pitch is the device's
// row-shift rule at every compatible column, not just the home span.
func TestPitchMatchesRowShiftRule(t *testing.T) {
	for _, p := range kernelProblems(t) {
		pr := newPrep(p)
		pitched := 0
		for bidx := range p.Blocks {
			b := &p.Blocks[bidx]
			if pr.pitch[bidx] > 1 {
				pitched++
			}
			if len(b.Spans) == 0 {
				if pr.pitch[bidx] != 1 {
					t.Errorf("%s: empty block %s has pitch %d", p.Dev.Name, b.Name, pr.pitch[bidx])
				}
				continue
			}
			for _, x := range pr.originsX[bidx] {
				for y := 0; y < 2*fabric.BRAMRows*fabric.DSPRows; y++ {
					if got, want := y%pr.pitch[bidx] == 0, p.Dev.RowShiftCompatible(x, x+b.Width-1, y); got != want {
						t.Fatalf("%s block %s at x=%d y=%d: pitch %d says %v, device says %v",
							p.Dev.Name, b.Name, x, y, pr.pitch[bidx], got, want)
					}
				}
			}
		}
		if pitched == 0 {
			t.Errorf("%s: no block with a BRAM/DSP pitch in the test set", p.Dev.Name)
		}
	}
}

// FuzzLegalRows decodes bytes into a device choice, one footprint and an
// occupancy, and holds legalRows to the bit-by-bit reference on every
// compatible column.
func FuzzLegalRows(f *testing.F) {
	f.Add([]byte{0, 3, 2, 0, 9, 2, 7, 60, 70, 5, 10, 20, 6, 0, 149})
	f.Add([]byte{1, 40, 3, 0, 63, 64, 64, 1, 200, 41, 100, 255, 42, 0, 5, 43, 60, 4})
	f.Add([]byte{2, 7, 1, 0, 0})
	f.Add([]byte{1, 90, 4, 5, 30, 0, 99, 12, 12, 3, 3})
	z45 := fabric.XC7Z045()
	set, err := fabric.Shards(z45, 2)
	if err != nil {
		f.Fatal(err)
	}
	devs := []*fabric.Device{fabric.XC7Z020(), z45, set.Members[1].Dev}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		dev := devs[next()%len(devs)]
		width := 1 + next()%4
		b := Block{Name: "fuzz", Width: width}
		b.HomeX = next() % (dev.NumCols() - width + 1)
		for dx := 0; dx < width; dx++ {
			lo, hi := next()%dev.Rows, next()%dev.Rows
			if lo > hi {
				lo, hi = hi, lo
			}
			if hi-lo > 120 {
				continue // leave the column out: a gap in the footprint
			}
			b.Spans = append(b.Spans, ColSpan{DX: dx, Min: lo, Max: hi})
			if hi+1 > b.Height {
				b.Height = hi + 1
			}
		}
		p := &Problem{Dev: dev, Blocks: []Block{b}, Instances: []Instance{{Name: "fuzz"}}}
		a := newAnnealer(p, newPrep(p), DefaultConfig(), 1)
		for len(data) >= 3 {
			col, lo, n := next()%dev.NumCols(), next()*2%dev.Rows, next()%40
			a.occ.set(col, lo, min(lo+n, dev.Rows-1), true)
		}
		for _, x := range a.pr.originsX[0] {
			rows := a.legalRows(0, x)
			for y := 0; y < len(rows)*64; y++ {
				if got, want := rows[y>>6]>>uint(y&63)&1 != 0, refFits(a, 0, x, y); got != want {
					t.Fatalf("%s block %+v at (%d, %d): legalRows %v, reference %v", dev.Name, b, x, y, got, want)
				}
			}
		}
	})
}

// TestIllegalMoveAllocs: the move loop and the kernel allocate nothing —
// the scratch words live on the annealer, the pending buffers are sized
// up front. The full cnv device rejects most proposals, so the run is
// dominated by the illegal path.
func TestIllegalMoveAllocs(t *testing.T) {
	p := cnvMinCFProblem(t)
	a := newAnnealer(p, newPrep(p), DefaultConfig(), 12)
	a.greedyInit()
	a.initCostState()
	const runs = 5000
	if n := testing.AllocsPerRun(runs, func() { a.tryMove(1) }); n != 0 {
		t.Errorf("tryMove: %v allocs per move, want 0", n)
	}
	if a.illegal < runs/2 {
		t.Errorf("only %d of %d moves were illegal: the test no longer exercises the rejected path", a.illegal, runs)
	}
	bidx := p.Instances[0].Block
	x := a.pr.originsX[bidx][0]
	if n := testing.AllocsPerRun(1000, func() { a.legalRows(bidx, x) }); n != 0 {
		t.Errorf("legalRows: %v allocs per call, want 0", n)
	}
}

// TestMoveLoopKeepsBitmapExact drives the move loop on the full cnv
// device — where proposals routinely land on the instance's own
// footprint, the one case that lifts it before acceptance — and
// cross-checks costs and bitmap every few moves instead of every 1024.
func TestMoveLoopKeepsBitmapExact(t *testing.T) {
	p := cnvMinCFProblem(t)
	a := newAnnealer(p, newPrep(p), DefaultConfig(), 5)
	a.greedyInit()
	a.initCostState()
	temp := costOf(a.cost) * 0.03
	for it := 0; it < 20000; it++ {
		a.tryMove(temp)
		if it%37 == 0 {
			a.checkIncremental(it)
		}
	}
	if a.accepts == 0 || a.illegal == 0 {
		t.Errorf("accepts %d, illegal %d: both paths must run", a.accepts, a.illegal)
	}
}

// TestCheckIncrementalCatchesStaleBit: a footprint bit no origin
// accounts for — what a wrong unmark in the move loop would leave —
// trips the cross-check even though every cost still matches.
func TestCheckIncrementalCatchesStaleBit(t *testing.T) {
	p := smallProblem(t, 6)
	a := newAnnealer(p, newPrep(p), DefaultConfig(), 1)
	a.greedyInit()
	a.initCostState()
	a.checkIncremental(0) // clean state passes
	a.occ.set(p.Dev.NumCols()-1, p.Dev.Rows-1, p.Dev.Rows-1, true)
	defer func() {
		if recover() == nil {
			t.Error("a stale occupancy bit went unnoticed")
		}
	}()
	a.checkIncremental(1)
}
