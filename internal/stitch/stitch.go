// Package stitch implements the RapidWright-style stitcher: a simulated
// annealing placer that replicates pre-implemented blocks across the
// device and reconstructs the block diagram (§IV, §VIII of the paper).
//
// Blocks relocate only to column-compatible positions (identical column
// kind sequences, BRAM/DSP row alignment). Occupancy is slice-column
// granular: each block consumes, per tile column, the full row interval
// its logic spans — so ragged footprints from loose PBlocks waste the
// rows between their extremes, produce "dead spots", and cause the
// illegal moves that slow annealing, exactly the paper's mechanism.
//
// The annealer runs as one serial chain (Config.Chains <= 1, the
// paper-fidelity mode) or as K parallel-tempering replicas exchanging
// states on a fixed schedule (see chains.go). Either way the inner loop
// is incremental: per-net costs are cached and moves apply delta
// updates. Costs are whole int64 counts of 1/32 (see unitsPerCost), so
// the cache and the running total equal a full recomputation exactly,
// in any summation order.
//
// Legality has one kernel, shared by every backend. A single point is
// tested by fits: the block's row rule (on the device, on the BRAM/DSP
// pitch of its column signature — a constant of the block, held in
// prep) and one masked word test per occupied column. A whole column of
// candidate origin rows is tested at once by legalRows, which smears
// the occupied words of each footprint column over the span length and
// returns the bitmask of rows that fit; firstFit and snapToLegal are
// "lowest set bit" and "nearest set bit" over that mask. A proposed
// move is tested against the full occupancy before its own footprint is
// touched, so the common rejected move never writes the bitmap.
package stitch

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"macroflow/internal/fabric"
	"macroflow/internal/obs"
	"macroflow/internal/place"
	"macroflow/internal/rng"
)

// ColSpan is one occupied column of a block footprint.
type ColSpan struct {
	DX       int // column offset from the block origin
	Min, Max int // occupied row interval, inclusive, origin-relative
}

// Block is one unique pre-implemented block, ready for replication.
type Block struct {
	Name string
	// HomeX is the column the block was implemented at; relocation
	// targets must be column-compatible with it.
	HomeX int
	// Width is the full span in tile columns.
	Width int
	// Height is the footprint height in rows.
	Height int
	// Spans are the occupied columns.
	Spans []ColSpan
	// Irregularity is the footprint raggedness (for reporting).
	Irregularity float64
}

// Area returns the consumed tile area.
func (b *Block) Area() int {
	a := 0
	for _, s := range b.Spans {
		a += s.Max - s.Min + 1
	}
	return a
}

// NewBlock converts a detailed placement into a relocatable block.
func NewBlock(name string, pl *place.Placement) Block {
	b := Block{
		Name:         name,
		HomeX:        pl.Rect.X0,
		Irregularity: pl.Footprint.Irregularity(),
	}
	first := -1
	for dx, c := range pl.Footprint.Cols {
		if c.Empty() {
			continue
		}
		if first < 0 {
			first = dx
		}
		b.Spans = append(b.Spans, ColSpan{DX: dx - first, Min: c.Min, Max: c.Max})
		if c.Max+1 > b.Height {
			b.Height = c.Max + 1
		}
	}
	if first > 0 {
		b.HomeX += first
	}
	if n := len(b.Spans); n > 0 {
		b.Width = b.Spans[n-1].DX + 1
	}
	return b
}

// Instance is one required occurrence of a block.
type Instance struct {
	Name  string
	Block int // index into Problem.Blocks
}

// Net is a weighted connection between two instances; the SA cost is the
// weighted wirelength between placed endpoints.
type Net struct {
	From, To int
	Weight   float64
}

// Anchor is a fixed-point attraction on one instance: when the instance
// is placed, the cost gains Weight times the Manhattan distance between
// the instance's center and (X, Y); unplaced instances contribute
// nothing (the unplaced penalty covers them). Sharded stitching models
// cross-shard nets as anchors — the remote endpoint, frozen at its
// shard's center, pulls the local endpoint toward the cut boundary — so
// per-shard runs co-optimize intra-shard wirelength and cross-shard
// cut with the same incremental machinery as ordinary nets. The anchor
// point may lie outside the device: it is pure arithmetic, never a
// placement target.
type Anchor struct {
	Inst int
	X, Y float64
	// Weight scales the attraction (a cross-shard net's weight).
	Weight float64
}

// Problem is a full stitching task.
type Problem struct {
	Dev       *fabric.Device
	Blocks    []Block
	Instances []Instance
	Nets      []Net
	// Anchors are fixed-point attractions (nil for single-device runs;
	// the solver's arithmetic is then byte-identical to releases without
	// anchor support).
	Anchors []Anchor
}

// terms is the number of cost terms: real nets first, then anchors as
// virtual net indices len(Nets)..len(Nets)+len(Anchors)-1.
func (p *Problem) terms() int { return len(p.Nets) + len(p.Anchors) }

// Config tunes the annealer.
type Config struct {
	Seed int64
	// Backend selects the stitching algorithm: BackendAnneal (the zero
	// value, byte-identical to previous releases), BackendAnalytic
	// (gradient-descent global placement + snap-to-legal, no annealing)
	// or BackendHybrid (the analytic placement seeds the annealer's
	// cold chain in place of the greedy construction). See analytic.go.
	Backend Backend
	// GDIterations is the analytic backend's gradient-descent budget
	// (default 256); ignored by BackendAnneal.
	GDIterations int
	// Iterations is the total SA move budget (default 200,000). With
	// Chains > 1 the budget is divided evenly across the chains.
	Iterations int
	// Chains is the number of parallel-tempering replicas. 0 or 1 runs
	// the single serial chain, bit-identical to the historical
	// annealer. K > 1 runs K chains with per-chain derived seeds and a
	// geometric temperature ladder, exchanging states on a fixed
	// replica-exchange schedule; the result is bit-reproducible for a
	// given (Seed, Chains) pair regardless of GOMAXPROCS.
	Chains int
	// TraceEvery is the cost-trace sampling interval in iterations;
	// values < 1 select the default of 256. It paces the per-chain
	// Trace/CostTrace samples and the serial chain's Progress callbacks
	// (multi-chain Progress fires at exchange barriers regardless).
	TraceEvery int
	// Progress, when non-nil, receives (chain, iteration, cost)
	// samples: every TraceEvery iterations from the serial chain, and
	// at every exchange barrier per chain for multi-chain runs. It is
	// always invoked from the calling goroutine, never concurrently.
	Progress func(chain, iter int, cost float64)
	// Obs, when non-nil, records chain/segment/exchange spans and
	// counters (stitch.moves, stitch.accepts, stitch.exchanges, ...).
	// Recording happens at barrier granularity — never inside the SA
	// hot loop — and never feeds the seeded RNG, so results are
	// bit-identical with and without a recorder.
	Obs *obs.Recorder
	// Span is the parent span the run's spans nest under (nil = root).
	Span *obs.Span
}

// The annealer's calibrated constants.
const (
	// initTempFrac is the starting temperature as a fraction of the
	// initial cost.
	initTempFrac = 0.03
	// unplacedPenalty is the cost of each unplaced instance, in units.
	unplacedPenalty = 2000 * unitsPerCost
	// exchangeRounds is the number of replica-exchange barriers spread
	// evenly over the per-chain budget.
	exchangeRounds = 16
)

// Cost units: a term is a weight in whole sixteenths (a net of width w
// weighs w/16) times a distance between centres X + W/2 in whole halves,
// so the annealer counts cost in int64 units of 1/32, exact in any order.
const (
	weightScale  = 16 // a weight in sixteenths
	coordScale   = 2  // a coordinate in halves
	unitsPerCost = weightScale * coordScale
)

// costOf is the float64 of units where a cost leaves the package or
// meets a temperature: the float64 sum of the same terms, bit for bit.
// The explicit conversion rounds the quotient (a product by 1/32 to the
// compiler), so no architecture fuses it into a caller's addition.
func costOf(u int64) float64 { return float64(float64(u) / unitsPerCost) }

// DefaultConfig returns the calibrated annealer settings.
func DefaultConfig() Config {
	return Config{Iterations: 200000}
}

// Origin is the placed position of an instance.
type Origin struct {
	X, Y   int
	Placed bool
}

// Result reports a stitching run.
type Result struct {
	Origins  []Origin
	Placed   int
	Unplaced int
	// InitialCost is the total cost after the greedy construction.
	InitialCost float64
	// FinalCost is the wirelength cost of placed nets (no penalties). It
	// equals a from-scratch recomputation exactly — the contract
	// internal/oracle's CheckCost verifies with ==.
	FinalCost float64
	// ConvergenceIter is the first iteration at which the annealer had
	// achieved 98% of its total cost improvement — the paper's
	// "SA converged N times faster" metric.
	ConvergenceIter int
	// IllegalMoves counts proposed moves rejected for overlap, summed
	// over all chains.
	IllegalMoves int
	// Iterations actually executed, summed over all chains.
	Iterations int
	// CostTrace samples (iteration, cost) every TraceEvery iterations
	// of the winning chain; the final (iteration, cost) point is always
	// appended even when the run ends off the sampling grid.
	CostTrace []CostSample
	// TraceEvery echoes the validated sampling interval the trace was
	// recorded at, so consumers need no magic constant.
	TraceEvery int
	// FreeTiles is the number of unoccupied CLB tiles after stitching.
	FreeTiles int
	// LargestFreeRect is the area of the biggest rectangle of free CLB
	// tiles: when it exceeds the unplaced blocks' sizes, placement
	// failures stem from column incompatibility and dead spots rather
	// than raw area — the paper's §IV observation.
	LargestFreeRect int
	// Chains holds per-chain telemetry (one entry for serial runs).
	Chains []ChainStats
	// Exchanges counts accepted replica exchanges (0 for serial runs).
	Exchanges int
	// GDIters is the analytic gradient-descent iteration count of the
	// run (0 for the pure annealer backend).
	GDIters int
}

// ChainStats is the telemetry of one annealing chain. It is also the
// public report of a chain (macroflow.ChainReport) and its api/v1 wire
// form, hence the JSON tags.
type ChainStats struct {
	// Chain is the ladder position (0 = coldest).
	Chain int `json:"chain"`
	// InitTemp is the chain's starting temperature.
	InitTemp float64 `json:"initTemp"`
	// Moves is the number of SA moves the chain proposed.
	Moves int `json:"moves"`
	// Accepts counts accepted (relocation or swap) proposals.
	Accepts int `json:"accepts"`
	// IllegalMoves counts proposals rejected for overlap.
	IllegalMoves int `json:"illegalMoves"`
	// Exchanges counts accepted replica exchanges involving the chain.
	Exchanges int `json:"exchanges,omitempty"`
	// FinalCost is the chain's final wirelength cost (no penalties).
	FinalCost float64 `json:"finalCost"`
	// Trace samples the chain's cost curve every TraceEvery iterations
	// (total cost, unplaced penalties included).
	Trace []CostSample `json:"trace,omitempty"`
}

// CostSample is one point of the annealing cost curve (also
// macroflow.CostPoint and its api/v1 wire form).
type CostSample struct {
	Iter int     `json:"iter"`
	Cost float64 `json:"cost"`
}

// occupancy is a per-column row bitset over the device.
type occupancy struct {
	words int
	bits  []uint64 // [col*words + w]
}

func newOccupancy(dev *fabric.Device) *occupancy {
	w := (dev.Rows + 63) / 64
	return &occupancy{words: w, bits: make([]uint64, dev.NumCols()*w)}
}

// spanMasks locates rows [lo, hi] (0 <= lo <= hi) in a column's words:
// the first and last word indices and the masks selecting the
// interval's bits inside them. Words strictly between are covered
// whole; when w0 == w1 the interval is first & last.
func spanMasks(lo, hi int) (w0, w1 int, first, last uint64) {
	return lo >> 6, hi >> 6, ^uint64(0) << uint(lo&63), ^uint64(0) >> uint(63-(hi&63))
}

func (o *occupancy) conflict(col, lo, hi int) bool {
	w0, w1, first, last := spanMasks(lo, hi)
	col *= o.words
	if w0 == w1 {
		return o.bits[col+w0]&first&last != 0
	}
	if o.bits[col+w0]&first != 0 || o.bits[col+w1]&last != 0 {
		return true
	}
	for w := w0 + 1; w < w1; w++ {
		if o.bits[col+w] != 0 {
			return true
		}
	}
	return false
}

func (o *occupancy) set(col, lo, hi int, on bool) {
	w0, w1, first, last := spanMasks(lo, hi)
	words := o.bits[col*o.words:]
	if w0 == w1 {
		first &= last
		last = first
	}
	if on {
		words[w0] |= first
		for w := w0 + 1; w < w1; w++ {
			words[w] = ^uint64(0)
		}
		words[w1] |= last
		return
	}
	words[w0] &^= first
	for w := w0 + 1; w < w1; w++ {
		words[w] = 0
	}
	words[w1] &^= last
}

// orShiftDown ORs src shifted down by k rows into dst: bit r of dst
// gains bit r+k of src, with zeros entering above the top word. dst and
// src may be the same slice — words are visited in ascending order and
// only read at or above the one being written.
func orShiftDown(dst, src []uint64, k int) {
	q, r := k>>6, uint(k&63)
	for i := 0; i+q < len(src); i++ {
		v := src[i+q] >> r
		if i+q+1 < len(src) {
			v |= src[i+q+1] << (64 - r) // a shift by 64 (r == 0) yields 0
		}
		dst[i] |= v
	}
}

// nearestSetBit returns the set bit of rows closest to row c, the lower
// one on a tie.
func nearestSetBit(rows []uint64, c int) (int, bool) {
	w, b := c>>6, uint(c&63)
	below, above := -1, -1
	if m := rows[w] & (^uint64(0) >> (63 - b)); m != 0 {
		below = w<<6 + bits.Len64(m) - 1
	} else {
		for i := w - 1; i >= 0; i-- {
			if rows[i] != 0 {
				below = i<<6 + bits.Len64(rows[i]) - 1
				break
			}
		}
	}
	if m := rows[w] & (^uint64(0) << b << 1); m != 0 {
		above = w<<6 + bits.TrailingZeros64(m)
	} else {
		for i := w + 1; i < len(rows); i++ {
			if rows[i] != 0 {
				above = i<<6 + bits.TrailingZeros64(rows[i])
				break
			}
		}
	}
	switch {
	case below < 0 && above < 0:
		return 0, false
	case above < 0 || (below >= 0 && c-below <= above-c):
		return below, true
	}
	return above, true
}

// prep holds the problem-derived lookup tables shared read-only by all
// chains of a run.
type prep struct {
	// originsX[b] caches the column-compatible X origins of block b.
	originsX [][]int
	// pitch[b] is the row-shift rule of block b: origin rows must be a
	// multiple of it. 1 for pure-CLB footprints, the BRAM/DSP tile pitch
	// when the home span holds such a column. Every x a block is ever
	// tested at is signature-compatible with its home span, so the rule
	// is a constant of the block, not of the move.
	pitch []int
	// validRows[b*words:(b+1)*words] is the bitmask of origin rows y
	// that satisfy block b's row rule on this device: a multiple of the
	// pitch with y+Height <= Rows. All zero when the block is taller
	// than the device.
	validRows []uint64
	// colDraw[b] and rowDraw[b] draw a relocation target of block b: an
	// index into originsX[b], and an origin row in [0, Rows-Height]
	// (zero Bounds where that range is empty and the move returns first).
	// instDraw draws an instance. Precomputed, the move loop divides
	// nothing.
	colDraw, rowDraw []rng.Bound
	instDraw         rng.Bound
	// order lists the instances area-descending (index-ascending on
	// ties): the placement order of greedyInit and legalize.
	order []int
	// netsOf[i] lists net indices touching instance i.
	netsOf [][]int
	// weight[ni] is cost term ni's weight in sixteenths (nets, then
	// anchors); anchorX, anchorY are the anchors' points in halves.
	weight           []int64
	anchorX, anchorY []int64
}

func newPrep(p *Problem) *prep {
	words := (p.Dev.Rows + 63) / 64
	pr := &prep{
		originsX:  make([][]int, len(p.Blocks)),
		pitch:     make([]int, len(p.Blocks)),
		validRows: make([]uint64, len(p.Blocks)*words),
		colDraw:   make([]rng.Bound, len(p.Blocks)),
		rowDraw:   make([]rng.Bound, len(p.Blocks)),
		order:     make([]int, len(p.Instances)),
		netsOf:    make([][]int, len(p.Instances)),
		weight:    make([]int64, p.terms()),
		anchorX:   make([]int64, len(p.Anchors)),
		anchorY:   make([]int64, len(p.Anchors)),
	}
	for ni, n := range p.Nets {
		pr.weight[ni] = onGrid(n.Weight, weightScale, "net", ni, "weight")
	}
	for ai, an := range p.Anchors {
		pr.weight[len(p.Nets)+ai] = onGrid(an.Weight, weightScale, "anchor", ai, "weight")
		pr.anchorX[ai] = onGrid(an.X, coordScale, "anchor", ai, "X")
		pr.anchorY[ai] = onGrid(an.Y, coordScale, "anchor", ai, "Y")
	}
	areas := make([]int, len(p.Blocks))
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		areas[bi] = b.Area()
		pr.pitch[bi] = 1
		if len(b.Spans) == 0 {
			pr.originsX[bi] = []int{1}
		} else {
			pr.originsX[bi] = p.Dev.CompatibleOriginsX(b.HomeX, b.Width)
			for x := max(b.HomeX, 0); x < min(b.HomeX+b.Width, p.Dev.NumCols()); x++ {
				switch p.Dev.KindAt(x) {
				case fabric.ColBRAM:
					pr.pitch[bi] = lcm(pr.pitch[bi], fabric.BRAMRows)
				case fabric.ColDSP:
					pr.pitch[bi] = lcm(pr.pitch[bi], fabric.DSPRows)
				}
			}
		}
		for y := 0; y+b.Height <= p.Dev.Rows; y += pr.pitch[bi] {
			pr.validRows[bi*words+y>>6] |= 1 << uint(y&63)
		}
		if n := len(pr.originsX[bi]); n > 0 {
			pr.colDraw[bi] = rng.NewBound(n)
		}
		if n := p.Dev.Rows - b.Height + 1; n > 0 {
			pr.rowDraw[bi] = rng.NewBound(n)
		}
	}
	if n := len(p.Instances); n > 0 {
		pr.instDraw = rng.NewBound(n)
	}
	for i := range pr.order {
		pr.order[i] = i
	}
	sort.Slice(pr.order, func(i, j int) bool {
		ai := areas[p.Instances[pr.order[i]].Block]
		aj := areas[p.Instances[pr.order[j]].Block]
		if ai != aj {
			return ai > aj
		}
		return pr.order[i] < pr.order[j]
	})
	// Bucket nets by endpoint into one flat backing array (counting
	// pass, then fill): per-instance append slices cost one allocation
	// per instance, which dominated stitch.Run's allocation profile.
	// Anchors join the buckets as virtual net indices >= len(Nets), so
	// the incremental move loop recomputes them like any touched net.
	deg := make([]int, len(p.Instances))
	total := 0
	for _, n := range p.Nets {
		deg[n.From]++
		total++
		if n.To != n.From {
			deg[n.To]++
			total++
		}
	}
	for _, an := range p.Anchors {
		deg[an.Inst]++
		total++
	}
	flat := make([]int, total)
	off := 0
	for i, d := range deg {
		pr.netsOf[i] = flat[off : off : off+d]
		off += d
	}
	for ni, n := range p.Nets {
		pr.netsOf[n.From] = append(pr.netsOf[n.From], ni)
		if n.To != n.From {
			pr.netsOf[n.To] = append(pr.netsOf[n.To], ni)
		}
	}
	for ai, an := range p.Anchors {
		pr.netsOf[an.Inst] = append(pr.netsOf[an.Inst], len(p.Nets)+ai)
	}
	return pr
}

// onGrid returns v·scale, which must be a whole number below 2^40 in
// magnitude, so no product or sum of units overflows an int64; an
// off-grid value panics, as an unknown backend does.
func onGrid(v, scale float64, kind string, i int, field string) int64 {
	u := v * scale
	if u != math.Trunc(u) || math.Abs(u) >= 1<<40 {
		panic(fmt.Sprintf("stitch: %s %d %s %v is not a whole multiple of 1/%v below 2^40", kind, i, field, v, scale))
	}
	return int64(u)
}

// lcm is the least common multiple of two positive ints.
func lcm(a, b int) int {
	g, r := a, b
	for r != 0 {
		g, r = r, g%r
	}
	return a / g * b
}

// annealer carries the SA state of one chain.
type annealer struct {
	p   *Problem
	pr  *prep
	cfg Config
	rng *rng.Rand
	occ *occupancy
	// rows and smear are legalRows' result and working words; they live
	// here so the kernel never allocates.
	rows, smear []uint64

	origins []Origin
	// cx, cy cache the wirelength centers of placed instances in halves
	// (2X + W); they are pure functions of the origin.
	cx, cy []int64
	// netCost0 caches the cost of every net under the current origins,
	// in units. Moves read the "before" side from the cache and only
	// recompute the nets the move touches — the incremental inner loop.
	netCost0 []int64
	cost     int64

	// pendingNets/pendingVals stage the recomputed costs of a proposed
	// move for commit on acceptance.
	pendingNets []int
	pendingVals []int64

	// telemetry
	moves, accepts, illegal int
}

func newAnnealer(p *Problem, pr *prep, cfg Config, seed int64) *annealer {
	// The pending scratch buffers are sized to the densest instance's
	// net degree (x2 for swaps) up front, so the hot loop never grows
	// them: freshInstCost/freshPairCost append within capacity.
	deg := 0
	for _, nets := range pr.netsOf {
		if len(nets) > deg {
			deg = len(nets)
		}
	}
	occ := newOccupancy(p.Dev)
	return &annealer{
		p:           p,
		pr:          pr,
		cfg:         cfg,
		rng:         rng.New(seed),
		occ:         occ,
		rows:        make([]uint64, occ.words),
		smear:       make([]uint64, occ.words),
		origins:     make([]Origin, len(p.Instances)),
		cx:          make([]int64, len(p.Instances)),
		cy:          make([]int64, len(p.Instances)),
		pendingNets: make([]int, 0, 2*deg),
		pendingVals: make([]int64, 0, 2*deg),
	}
}

// Run solves the stitching problem.
func Run(p *Problem, cfg Config) *Result {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 200000
	}
	if cfg.TraceEvery < 1 {
		cfg.TraceEvery = 256
	}
	if len(p.Instances) == 0 {
		return &Result{TraceEvery: cfg.TraceEvery} // nothing to place
	}
	switch cfg.Backend {
	case "", BackendAnneal, BackendHybrid:
		return runChains(p, newPrep(p), cfg)
	case BackendAnalytic:
		return runAnalytic(p, newPrep(p), cfg)
	}
	panic(fmt.Sprintf("stitch: unknown backend %q (callers validate via ParseBackend)", cfg.Backend))
}

// rowOK is the occupancy-independent half of legality: block bidx at
// origin row y stays on the device and lands BRAM/DSP tiles on sites.
func (a *annealer) rowOK(bidx, y int) bool {
	return y >= 0 && y+a.p.Blocks[bidx].Height <= a.p.Dev.Rows && y%a.pr.pitch[bidx] == 0
}

// overlaps reports whether block b at (x, y) touches an occupied slice.
func (a *annealer) overlaps(b *Block, x, y int) bool {
	for _, s := range b.Spans {
		if a.occ.conflict(x+s.DX, y+s.Min, y+s.Max) {
			return true
		}
	}
	return false
}

// fits is the single-point legality predicate: block bidx placed at
// (x, y) — x column-compatible with the block's home span — avoids all
// occupied slices and stays on the device with aligned BRAM/DSP rows.
func (a *annealer) fits(bidx, x, y int) bool {
	return a.rowOK(bidx, y) && !a.overlaps(&a.p.Blocks[bidx], x, y)
}

// legalRows is fits for every origin row of column x at once: bit y of
// the result is set exactly when fits(bidx, x, y). Per footprint column
// the occupied words are smeared downward over the span length L by
// log-doubling shifts (after the pass bit r says "some row of
// [r, r+L-1] is occupied"), so origin row y is blocked by that column
// when bit y+Min is set; the blocked rows of all columns are OR-ed,
// inverted and cut down to the rows the block's row rule admits. The
// result aliases a.rows and is valid until the next call.
func (a *annealer) legalRows(bidx, x int) []uint64 {
	nw := a.occ.words
	rows, t := a.rows, a.smear
	for i := range rows {
		rows[i] = 0
	}
	for _, s := range a.p.Blocks[bidx].Spans {
		copy(t, a.occ.bits[(x+s.DX)*nw:(x+s.DX+1)*nw])
		n := s.Max - s.Min + 1
		m := 1 // t covers windows of m rows
		for ; 2*m <= n; m *= 2 {
			orShiftDown(t, t, m)
		}
		if m < n {
			orShiftDown(t, t, n-m) // n-m < m: the two windows still abut
		}
		orShiftDown(rows, t, s.Min)
	}
	valid := a.pr.validRows[bidx*nw : (bidx+1)*nw]
	for i := range rows {
		rows[i] = ^rows[i] & valid[i]
	}
	return rows
}

func (a *annealer) mark(b *Block, x, y int, on bool) {
	for _, s := range b.Spans {
		a.occ.set(x+s.DX, y+s.Min, y+s.Max, on)
	}
}

// setOrigin moves an instance and refreshes its cached center.
func (a *annealer) setOrigin(ii int, o Origin) {
	a.origins[ii] = o
	if o.Placed {
		b := &a.p.Blocks[a.p.Instances[ii].Block]
		a.cx[ii] = int64(coordScale*o.X + b.Width)
		a.cy[ii] = int64(coordScale*o.Y + b.Height)
	}
}

// greedyInit places instances area-descending, first fit.
func (a *annealer) greedyInit() {
	for _, ii := range a.pr.order {
		bidx := a.p.Instances[ii].Block
		if placed, x, y := a.firstFit(bidx); placed {
			a.setOrigin(ii, Origin{X: x, Y: y, Placed: true})
			a.mark(&a.p.Blocks[bidx], x, y, true)
		}
	}
}

// firstFit returns the first legal origin of block bidx in column-major
// order: the lowest legal row of the first compatible column that has
// one.
func (a *annealer) firstFit(bidx int) (bool, int, int) {
	for _, x := range a.pr.originsX[bidx] {
		for w, m := range a.legalRows(bidx, x) {
			if m != 0 {
				return true, x, w<<6 + bits.TrailingZeros64(m)
			}
		}
	}
	return false, 0, 0
}

// computeNetCost is the weighted Manhattan distance of one cost term:
// a net between two placed endpoints, or (for virtual indices >=
// len(Nets)) an anchor between a placed instance and its fixed point.
// Terms with an unplaced endpoint cost the unplaced penalty share.
func (a *annealer) computeNetCost(ni int) int64 {
	if ni >= len(a.p.Nets) {
		ai := ni - len(a.p.Nets)
		inst := a.p.Anchors[ai].Inst
		if !a.origins[inst].Placed {
			return 0
		}
		return a.pr.weight[ni] * (abs64(a.cx[inst]-a.pr.anchorX[ai]) + abs64(a.cy[inst]-a.pr.anchorY[ai]))
	}
	n := &a.p.Nets[ni]
	if !a.origins[n.From].Placed || !a.origins[n.To].Placed {
		return 0 // the per-instance penalty covers unplaced endpoints
	}
	return a.pr.weight[ni] * (abs64(a.cx[n.From]-a.cx[n.To]) + abs64(a.cy[n.From]-a.cy[n.To]))
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// initCostState fills the per-term cost cache and the running total.
func (a *annealer) initCostState() {
	a.netCost0 = make([]int64, a.p.terms())
	for ni := range a.netCost0 {
		a.netCost0[ni] = a.computeNetCost(ni)
	}
	a.cost = a.totalCost()
}

// totalCost recomputes the full cost from scratch (no cache reads).
func (a *annealer) totalCost() int64 {
	var c int64
	for ni := 0; ni < a.p.terms(); ni++ {
		c += a.computeNetCost(ni)
	}
	for ii := range a.origins {
		if !a.origins[ii].Placed {
			c += unplacedPenalty
		}
	}
	return c
}

// cachedInstCost sums the cached cost of nets touching instance ii plus
// its penalty.
func (a *annealer) cachedInstCost(ii int) int64 {
	var c int64
	for _, ni := range a.pr.netsOf[ii] {
		c += a.netCost0[ni]
	}
	if !a.origins[ii].Placed {
		c += unplacedPenalty
	}
	return c
}

// freshInstCost recomputes the nets touching instance ii under the
// current (proposed) origins, staging each value for commit.
func (a *annealer) freshInstCost(ii int) int64 {
	var c int64
	for _, ni := range a.pr.netsOf[ii] {
		v := a.computeNetCost(ni)
		a.pendingNets = append(a.pendingNets, ni)
		a.pendingVals = append(a.pendingVals, v)
		c += v
	}
	if !a.origins[ii].Placed {
		c += unplacedPenalty
	}
	return c
}

func (a *annealer) clearPending() {
	a.pendingNets = a.pendingNets[:0]
	a.pendingVals = a.pendingVals[:0]
}

func (a *annealer) commitPending() {
	for k, ni := range a.pendingNets {
		a.netCost0[ni] = a.pendingVals[k]
	}
}

// swapDraw draws the move kind: a swap one time in eight.
var swapDraw = rng.NewBound(8)

// tryMove proposes one SA move: usually a relocation of a random
// instance to a random column-compatible origin, occasionally a swap of
// two instances' positions. Overlapping proposals are rejected as
// illegal moves.
func (a *annealer) tryMove(temp float64) {
	a.moves++
	if len(a.p.Instances) > 1 && a.rng.Bounded(swapDraw) == 0 {
		a.trySwap(temp)
		return
	}
	ii := a.rng.Bounded(a.pr.instDraw)
	bidx := a.p.Instances[ii].Block
	b := &a.p.Blocks[bidx]
	xs := a.pr.originsX[bidx]
	if len(xs) == 0 {
		return
	}
	nx := xs[a.rng.Bounded(a.pr.colDraw[bidx])]
	if b.Height > a.p.Dev.Rows {
		return
	}
	ny := a.rng.Bounded(a.pr.rowDraw[bidx])

	// ny is at most Rows-Height, so the row rule is validRows' bit.
	nw := a.occ.words
	if a.pr.validRows[bidx*nw+ny>>6]>>uint(ny&63)&1 == 0 {
		a.illegal++ // BRAM/DSP tiles off their sites
		return
	}
	// Test the target against the full occupancy first. A conflict can
	// only be with the instance's own footprint when the old and new
	// bounding boxes overlap; only then is the old footprint lifted for
	// a second look. The common rejected move never writes the bitmap.
	old := a.origins[ii]
	lifted := false
	if a.overlaps(b, nx, ny) {
		maybeOwn := old.Placed && nx < old.X+b.Width && old.X < nx+b.Width &&
			ny < old.Y+b.Height && old.Y < ny+b.Height
		if maybeOwn {
			a.mark(b, old.X, old.Y, false)
			if lifted = !a.overlaps(b, nx, ny); !lifted {
				a.mark(b, old.X, old.Y, true)
			}
		}
		if !lifted {
			a.illegal++ // overlap with other logic (§IV)
			return
		}
	}
	before := a.cachedInstCost(ii)
	a.clearPending()
	a.setOrigin(ii, Origin{X: nx, Y: ny, Placed: true})
	after := a.freshInstCost(ii)
	delta := after - before
	if delta <= 0 || a.rng.Float64() < math.Exp(-costOf(delta)/temp) {
		if old.Placed && !lifted {
			a.mark(b, old.X, old.Y, false)
		}
		a.mark(b, nx, ny, true)
		a.cost += delta
		a.commitPending()
		a.accepts++
	} else {
		a.setOrigin(ii, old)
		if lifted {
			a.mark(b, old.X, old.Y, true)
		}
	}
}

// trySwap exchanges the origins of two placed instances when both fit
// at the other's position. Two instances of one block always do, and
// the union of their footprints is the same before and after, so that
// swap leaves the bitmap alone; for different blocks the vacated areas
// must cover each other, tested on the bitmap with both lifted.
func (a *annealer) trySwap(temp float64) {
	i1 := a.rng.Bounded(a.pr.instDraw)
	i2 := a.rng.Bounded(a.pr.instDraw)
	if i1 == i2 {
		return
	}
	o1, o2 := a.origins[i1], a.origins[i2]
	if !o1.Placed || !o2.Placed {
		return
	}
	bi1, bi2 := a.p.Instances[i1].Block, a.p.Instances[i2].Block
	b1, b2 := &a.p.Blocks[bi1], &a.p.Blocks[bi2]
	// Column compatibility at the destination positions.
	if !a.p.Dev.SignatureMatches(b1.HomeX, b1.Width, o2.X) ||
		!a.p.Dev.SignatureMatches(b2.HomeX, b2.Width, o1.X) {
		return
	}
	// The row rules need no bitmap; settle them before lifting anything.
	if !a.rowOK(bi1, o2.Y) || !a.rowOK(bi2, o1.Y) {
		a.illegal++
		return
	}
	same := bi1 == bi2
	if !same {
		a.mark(b1, o1.X, o1.Y, false)
		a.mark(b2, o2.X, o2.Y, false)
		// b1 must be marked at its destination before b2 is checked, or
		// the two swapped blocks could overlap each other.
		ok := !a.overlaps(b1, o2.X, o2.Y)
		if ok {
			a.mark(b1, o2.X, o2.Y, true)
			ok = !a.overlaps(b2, o1.X, o1.Y)
			a.mark(b1, o2.X, o2.Y, false)
		}
		if !ok {
			a.mark(b1, o1.X, o1.Y, true)
			a.mark(b2, o2.X, o2.Y, true)
			a.illegal++
			return
		}
	}
	before := a.cachedPairCost(i1, i2)
	a.clearPending()
	a.setOrigin(i1, Origin{X: o2.X, Y: o2.Y, Placed: true})
	a.setOrigin(i2, Origin{X: o1.X, Y: o1.Y, Placed: true})
	after := a.freshPairCost(i1, i2)
	delta := after - before
	if delta <= 0 || a.rng.Float64() < math.Exp(-costOf(delta)/temp) {
		if !same {
			a.mark(b1, o2.X, o2.Y, true)
			a.mark(b2, o1.X, o1.Y, true)
		}
		a.cost += delta
		a.commitPending()
		a.accepts++
	} else {
		a.setOrigin(i1, o1)
		a.setOrigin(i2, o2)
		if !same {
			a.mark(b1, o1.X, o1.Y, true)
			a.mark(b2, o2.X, o2.Y, true)
		}
	}
}

// cachedPairCost sums the cached cost of the nets touching either
// instance, counting shared nets once.
func (a *annealer) cachedPairCost(i1, i2 int) int64 {
	c := a.cachedInstCost(i1)
	for _, ni := range a.pr.netsOf[i2] {
		// Anchors touch one instance, so i2's anchors are never shared
		// with i1 and always count.
		if ni < len(a.p.Nets) {
			n := &a.p.Nets[ni]
			if n.From == i1 || n.To == i1 {
				continue // already counted via i1
			}
		}
		c += a.netCost0[ni]
	}
	if !a.origins[i2].Placed {
		c += unplacedPenalty
	}
	return c
}

// freshPairCost recomputes the pair's nets under the proposed origins,
// staging each value for commit; shared nets are computed once.
func (a *annealer) freshPairCost(i1, i2 int) int64 {
	c := a.freshInstCost(i1)
	for _, ni := range a.pr.netsOf[i2] {
		if ni < len(a.p.Nets) {
			n := &a.p.Nets[ni]
			if n.From == i1 || n.To == i1 {
				continue // already counted via i1
			}
		}
		v := a.computeNetCost(ni)
		a.pendingNets = append(a.pendingNets, ni)
		a.pendingVals = append(a.pendingVals, v)
		c += v
	}
	if !a.origins[i2].Placed {
		c += unplacedPenalty
	}
	return c
}

// fragmentation computes the free-CLB-tile count and the largest free
// rectangle (maximal-rectangle DP over the occupancy grid).
func (a *annealer) fragmentation() (free, largestRect int) {
	dev := a.p.Dev
	w, h := dev.NumCols(), dev.Rows
	heights := make([]int, w)
	stack := make([]histEnt, 0, w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if dev.IsCLBColumn(x) && !a.occ.conflict(x, y, y) {
				free++
				heights[x]++
			} else {
				heights[x] = 0
			}
		}
		// Largest rectangle in histogram via a stack.
		if r := largestInHistogram(heights, stack); r > largestRect {
			largestRect = r
		}
	}
	return free, largestRect
}

// histEnt is one open bar on largestInHistogram's stack.
type histEnt struct{ idx, h int }

// largestInHistogram returns the largest rectangle under the histogram.
// stack is scratch (any contents, used from length 0): it never holds
// more than len(hs) bars, so a caller scanning many rows passes one
// slice of that capacity and the scan allocates nothing.
func largestInHistogram(hs []int, stack []histEnt) int {
	stack = stack[:0]
	best := 0
	for i := 0; i <= len(hs); i++ {
		cur := 0
		if i < len(hs) {
			cur = hs[i]
		}
		start := i
		for len(stack) > 0 && stack[len(stack)-1].h > cur {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if area := top.h * (i - top.idx); area > best {
				best = area
			}
			start = top.idx
		}
		if cur > 0 && (len(stack) == 0 || stack[len(stack)-1].h < cur) {
			stack = append(stack, histEnt{start, cur})
		}
	}
	return best
}
