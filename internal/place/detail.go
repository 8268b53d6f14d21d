package place

import (
	"fmt"
	"math"
	"math/rand"

	"macroflow/internal/fabric"
	"macroflow/internal/netlist"
)

// Coord is a cell's placed tile location.
type Coord struct {
	X, Y int16
}

// RowSpan is the occupied row interval of one footprint column,
// inclusive; Used counts occupied slices in that column.
type RowSpan struct {
	Min, Max int
	Used     int
}

// Empty reports whether the span holds no logic.
func (s RowSpan) Empty() bool { return s.Used == 0 }

// Footprint is the column-wise outline of a placed block, relative to
// the placement rectangle origin. RapidWright-style stitching treats the
// whole interval of each column as consumed, because the block's internal
// routing crosses the gaps — this is what makes irregular placements
// produce "dead spots".
type Footprint struct {
	Width int       // number of tile columns
	Rows  int       // rectangle height
	Cols  []RowSpan // per relative tile column
}

// Area returns the total consumed tile area (sum of column intervals).
func (f *Footprint) Area() int {
	a := 0
	for _, c := range f.Cols {
		if !c.Empty() {
			a += c.Max - c.Min + 1
		}
	}
	return a
}

// Irregularity measures the raggedness of the outline: the standard
// deviation of non-empty column interval lengths divided by their mean.
// A perfect rectangle scores 0.
func (f *Footprint) Irregularity() float64 {
	var lens []float64
	for _, c := range f.Cols {
		if !c.Empty() {
			lens = append(lens, float64(c.Max-c.Min+1))
		}
	}
	if len(lens) < 2 {
		return 0
	}
	mean := 0.0
	for _, l := range lens {
		mean += l
	}
	mean /= float64(len(lens))
	v := 0.0
	for _, l := range lens {
		v += (l - mean) * (l - mean)
	}
	v /= float64(len(lens))
	if mean == 0 {
		return 0
	}
	return math.Sqrt(v) / mean
}

// Placement is a legal assignment of every module cell to a site inside
// the placement rectangle.
type Placement struct {
	Module *netlist.Module
	Rect   fabric.Rect
	// CellAt holds the tile coordinate of each cell (indexed by CellID).
	CellAt []Coord
	// UsedSlices is the number of slices with at least one cell.
	UsedSlices int
	// Footprint is the column-wise outline used by the stitcher.
	Footprint Footprint
	// Spread is the area slack the placer worked with
	// (available slices / estimated slices).
	Spread float64
}

// Options tunes the detailed placer.
type Options struct {
	// Seed perturbs the spread jitter; 0 derives a seed from the
	// module's structural content, so repeated runs are deterministic
	// and renamed-but-identical modules place identically — the
	// implementation caches key on content, never on names, and a
	// cached result must match what a fresh run would produce.
	Seed int64
	// Compact forces spread 1 regardless of slack (area-optimizing mode,
	// like a vendor tool at ~100% utilization).
	Compact bool
	// IgnoreControlSets disables the one-control-set-per-CLB rule
	// (§V-B), for ablation studies of its contribution to the minimal
	// correction factor.
	IgnoreControlSets bool
	// PreOccupy marks this fraction of the rectangle's slices as taken
	// by foreign logic before placement starts, emulating the neighbors
	// a module sees when a monolithic tool implements it in the context
	// of a nearly full device. Pre-occupied slices are not counted in
	// UsedSlices or the footprint.
	PreOccupy float64
	// Warm, when non-nil, is a previous placement of the same module to
	// transplant into the new rectangle instead of re-packing from
	// scratch (used when only the PBlock rectangle changed, e.g. when
	// rebuilding a cached implementation). The transplanted placement is
	// audited with Verify; any illegality falls back to a cold start.
	Warm *Placement
}

// ErrInfeasible is returned (wrapped) when a module cannot be legally
// placed inside the rectangle.
type ErrInfeasible struct {
	Reason string
}

// Error implements the error interface.
func (e *ErrInfeasible) Error() string { return "place: infeasible: " + e.Reason }

// site indexes one slice within the placement region.
type site struct {
	x, y    int16 // tile coordinate
	isM     bool
	lutFree int8
	ffFree  int8
	carry   bool // carry site still free
	mem     bool // slice is used for LUTRAM/SRL
	used    bool
	// lutCap and ffCap are the pass-0 fill limits for this slice; with
	// spread slack they sit below the hardware capacity so loose PBlocks
	// open more, emptier slices (Table I).
	lutCap int8
	ffCap  int8
}

// sliceCol is a vertical run of slices sharing an (x, side) column.
type sliceCol struct {
	x     int
	side  int
	isM   bool
	first int // index of row y0's site in p.sites
	// window is the preferred fill interval [lo, hi) in local rows.
	lo, hi int
}

// csFree marks a CLB no control set has claimed; it lies outside the
// int32 range a cell's control set can take.
const csFree int64 = math.MinInt64

// placer is the state of one probe: the plan's module packed into one
// rectangle. Its slices are the probe's working tables; Plan.Place
// hands a finished placer to the next probe, which overwrites them in
// place.
type placer struct {
	plan   *Plan
	dev    *fabric.Device
	rect   fabric.Rect
	spread float64
	rng    *rand.Rand // draws from src
	src    streamSource

	// sites holds the slices column-major: column c's rows are
	// sites[cols[c].first : cols[c].first+rows].
	sites []site
	cols  []sliceCol
	rows  int
	// csOf is the control set claiming each CLB (csFree when none),
	// indexed (CLB column)*rows + row; the CLB column of slice column c
	// is c / SlicesPerCLB.
	csOf []int64
	// carryCols is the slice-column order carry chains try: L-type
	// columns first, so chains don't starve the scarcer M slices that
	// LUTRAM/SRL cells need.
	carryCols []int
	// lutRoom counts, per slice column, the sites that can still take a
	// LUT under the current placeLUTs pass's window and cap.
	lutRoom []int

	cellAt []Coord

	// freeM counts still-unused M slices; carry placement must leave at
	// least reserveM of them for the LUTRAM/SRL phase.
	freeM    int
	reserveM int
	// noCS disables the control-set-per-CLB rule (ablation).
	noCS bool
}

// place runs one probe. Everything it reads from earlier probes is
// overwritten before use, so the outcome does not depend on them.
func (p *placer) place(dev *fabric.Device, rect fabric.Rect, opts Options) (*Placement, error) {
	m := p.plan.m
	if err := p.open(dev, rect, opts); err != nil {
		return nil, err
	}
	if opts.Warm != nil && opts.PreOccupy == 0 {
		// A warm start cannot model foreign pre-occupation, so PreOccupy
		// runs always re-pack from scratch.
		if pl, ok := transplant(dev, m, rect, p.spread, opts.Warm); ok {
			return pl, nil
		}
	}
	if err := p.placeFixed(opts); err != nil {
		return nil, err
	}
	if err := p.placeLUTs(); err != nil {
		return nil, err
	}
	if err := p.placeBlocks(); err != nil {
		return nil, err
	}

	pl := &Placement{
		Module:    m,
		Rect:      rect,
		CellAt:    p.cellAt,
		Spread:    p.spread,
		Footprint: p.footprint(),
	}
	for i := range p.sites {
		if p.sites[i].used {
			pl.UsedSlices++
		}
	}
	p.cellAt = nil // the placement owns it now; the next probe gets its own
	return pl, nil
}

// open points the placer at a rectangle: its slice columns and the
// spread the module gets in them.
func (p *placer) open(dev *fabric.Device, rect fabric.Rect, opts Options) error {
	p.dev, p.rect = dev, rect
	p.noCS = opts.IgnoreControlSets
	p.layoutCols()
	avail := len(p.cols) * p.rows
	if avail == 0 {
		return &ErrInfeasible{Reason: "no slices in rectangle"}
	}
	need := p.plan.rep.EstSlices
	if need < 1 {
		need = 1
	}
	p.spread = float64(avail) / float64(need)
	if p.spread < 1 || opts.Compact {
		p.spread = 1
	}
	return nil
}

// placeFixed starts a cold pack of the opened rectangle and places what
// the logic LUTs then fill around: carry chains, LUTRAM/SRL, flip-flops.
// The plan's tables, the seed among them, are only needed from here on.
func (p *placer) placeFixed(opts Options) error {
	p.plan.prepare()
	seed := opts.Seed
	if seed == 0 {
		seed = p.plan.seed
	}
	if p.rng == nil {
		p.rng = rand.New(&p.src)
	}
	if seed == p.plan.seed {
		p.src.start(p.plan.stream)
	} else {
		p.src.Seed(seed)
	}
	p.buildSites()
	if opts.PreOccupy > 0 {
		for i := range p.sites {
			if p.rng.Float64() < opts.PreOccupy {
				st := &p.sites[i]
				st.lutFree = 0
				st.ffFree = 0
				st.carry = false
			}
		}
	}
	p.freeM = 0
	for i := range p.sites {
		if p.sites[i].isM && p.sites[i].carry {
			p.freeM++
		}
	}
	p.reserveM = p.plan.rep.EstSlicesM
	p.setCaps()
	p.planWindows()

	n := len(p.plan.m.Cells)
	if cap(p.cellAt) < n {
		p.cellAt = make([]Coord, n)
	}
	p.cellAt = p.cellAt[:n]
	for i := range p.cellAt {
		p.cellAt[i] = Coord{-1, -1}
	}

	if err := p.placeCarry(); err != nil {
		return err
	}
	if err := p.placeMem(); err != nil {
		return err
	}
	return p.placeFFs()
}

// layoutCols enumerates the slice columns of the rectangle, two per CLB
// column (side 0 is the M slice of a CLBM column), and its row count.
func (p *placer) layoutCols() {
	p.cols, p.rows = p.cols[:0], 0
	y0 := maxInt(p.rect.Y0, 0)
	y1 := minInt(p.rect.Y1, p.dev.Rows-1)
	if y1 < y0 {
		return
	}
	p.rows = y1 - y0 + 1
	for x := maxInt(p.rect.X0, 0); x <= minInt(p.rect.X1, p.dev.NumCols()-1); x++ {
		if !p.dev.IsCLBColumn(x) {
			continue
		}
		for side := 0; side < fabric.SlicesPerCLB; side++ {
			p.cols = append(p.cols, sliceCol{
				x: x, side: side, isM: p.dev.SliceTypeAt(x, side),
				first: len(p.cols) * p.rows,
			})
		}
	}
}

// buildSites resets the per-rectangle tables for the columns layoutCols
// found: every slice empty, every CLB unclaimed.
func (p *placer) buildSites() {
	y0 := maxInt(p.rect.Y0, 0)
	p.sites = p.sites[:0]
	for i := range p.cols {
		col := &p.cols[i]
		for r := 0; r < p.rows; r++ {
			p.sites = append(p.sites, site{
				x: int16(col.x), y: int16(y0 + r), isM: col.isM,
				lutFree: fabric.LUTsPerSlice,
				ffFree:  fabric.FFsPerSlice,
				carry:   true,
			})
		}
	}
	p.csOf = p.csOf[:0]
	for i := len(p.sites) / fabric.SlicesPerCLB; i > 0; i-- {
		p.csOf = append(p.csOf, csFree)
	}
	p.carryCols = p.carryCols[:0]
	for _, wantM := range [2]bool{false, true} {
		for i := range p.cols {
			if p.cols[i].isM == wantM {
				p.carryCols = append(p.carryCols, i)
			}
		}
	}
}

// setCaps derives the per-slice fill caps from the spread: with slack the
// placer opens more slices and fills each one less (timing-style
// placement), which is exactly the behavior behind Table I's ~10% higher
// slice counts at looser CFs. Fractional caps are realized by mixing two
// integer caps per slice with the slack-scaled probability.
func (p *placer) setCaps() {
	slack := p.spread - 1
	if slack > 1.2 {
		slack = 1.2
	}
	if slack < 0 {
		slack = 0
	}
	r := 1 + 0.25*slack
	lutF := fabric.LUTsPerSlice / r
	ffF := fabric.FFsPerSlice / r
	lutFrac := lutF - math.Floor(lutF)
	ffFrac := ffF - math.Floor(ffF)
	for i := range p.sites {
		s := &p.sites[i]
		s.lutCap = int8(math.Floor(lutF))
		if p.rng.Float64() < lutFrac {
			s.lutCap++
		}
		s.ffCap = int8(math.Floor(ffF))
		if p.rng.Float64() < ffFrac {
			s.ffCap++
		}
		if s.lutCap < 1 {
			s.lutCap = 1
		}
		if s.ffCap < 1 {
			s.ffCap = 1
		}
	}
}

// planWindows assigns each slice column a preferred fill window whose
// length tracks 1/spread with per-column jitter, producing the ragged
// outlines of Fig. 3 when the PBlock is loose. Window offsets follow a
// bounded random walk across adjacent columns so that locality between
// neighbouring columns is preserved while the outline stays irregular.
func (p *placer) planWindows() {
	rows := p.rows
	// Jitter amplitude scales with the slack: placements near the
	// feasibility edge are almost deterministic (stable minimal-CF
	// labels), loose placements are visibly ragged (Fig. 3).
	amp := p.spread - 1
	if amp > 1 {
		amp = 1
	}
	off := 0
	for i := range p.cols {
		frac := 1.0 / p.spread
		if amp > 0.02 {
			frac *= 1 + amp*0.45*(2*p.rng.Float64()-1)
		}
		if frac > 1 {
			frac = 1
		}
		n := int(math.Ceil(frac * float64(rows)))
		if n < 1 {
			n = 1
		}
		maxOff := rows - n
		if amp > 0.02 && maxOff > 0 {
			step := 1 + int(float64(rows)*amp/6)
			off += p.rng.Intn(2*step+1) - step
		}
		if off < 0 {
			off = 0
		}
		if off > maxOff {
			off = maxOff
		}
		p.cols[i].lo = off
		p.cols[i].hi = off + n
	}
}

// csCompatible checks and, when claim is true, claims CLB clb (an index
// into csOf) for control set cs.
func (p *placer) csCompatible(clb int, cs int32, claim bool) bool {
	if p.noCS {
		return true
	}
	cur := p.csOf[clb]
	if cur != csFree && cur != int64(cs) {
		return false
	}
	if claim {
		p.csOf[clb] = int64(cs)
	}
	return true
}

// placeCarry places carry chains, longest first, each needing a vertical
// run of carry-free slices in one slice column.
func (p *placer) placeCarry() error {
	rows := p.rows
	for _, cells := range p.plan.chains {
		l := len(cells)
		if l > rows {
			return &ErrInfeasible{Reason: fmt.Sprintf("carry chain of %d slices exceeds PBlock height %d", l, rows)}
		}
		placed := false
		// Pass 1: inside preferred windows; pass 2: anywhere.
		for pass := 0; pass < 2 && !placed; pass++ {
			for _, colIdx := range p.carryCols {
				col := &p.cols[colIdx]
				lo, hi := p.windowOf(col, pass)
				if col.isM && p.freeM-l < p.reserveM {
					continue // would starve the LUTRAM/SRL phase
				}
				if run := p.findRun(col, lo, hi, l); run >= 0 {
					for k, cell := range cells {
						s := &p.sites[col.first+run+k]
						s.carry = false
						s.lutFree = 0 // carry consumes the slice's LUTs
						s.used = true
						p.cellAt[cell] = Coord{s.x, s.y}
					}
					if col.isM {
						p.freeM -= l
					}
					placed = true
					break
				}
			}
		}
		if !placed {
			return &ErrInfeasible{Reason: fmt.Sprintf("no vertical run of %d slices for carry chain", l)}
		}
	}
	return nil
}

// findRun locates a vertical run of n carry-free slices in col rows
// [lo, hi); returns the local start row or -1.
func (p *placer) findRun(col *sliceCol, lo, hi, n int) int {
	run := 0
	for r := lo; r < hi; r++ {
		if p.sites[col.first+r].carry {
			run++
			if run == n {
				return r - n + 1
			}
		} else {
			run = 0
		}
	}
	return -1
}

// placeMem packs LUTRAM/SRL cells into M slices, honoring the one
// control set per CLB rule. Each group fills contiguously from a
// jittered start so spread placements scatter groups without wasting
// whole CLBs on fragmented claims.
func (p *placer) placeMem() error {
	for _, g := range p.plan.mem {
		group, cs := g.cells, g.cs
		idx := 0
		start := p.groupStart()
		// Memory banks always pack densely: spreading them would waste
		// the scarce M slices other control-set groups need.
		for pass := 0; pass < 2 && idx < len(group); pass++ {
			cap := fabric.LUTRAMPerMSlice
			p.scanCLBs(start, func(clb int, s0, s1 *site) bool {
				for _, s := range [2]*site{s0, s1} {
					if !s.isM {
						continue
					}
					if s.mem {
						if s.lutFree == 0 {
							continue // memory slice already full
						}
					} else if !s.carry || s.lutFree < fabric.LUTsPerSlice {
						continue // slice already used by carry or logic
					}
					if !p.csCompatible(clb, cs, false) {
						continue
					}
					fill := minInt(cap-(fabric.LUTsPerSlice-int(s.lutFree)), int(s.lutFree))
					if fill <= 0 {
						continue
					}
					for f := 0; f < fill && idx < len(group); f++ {
						p.csCompatible(clb, cs, true)
						s.mem = true
						s.used = true
						s.carry = false
						s.ffFree = 0 // memory slices don't host spare FFs
						s.lutFree--
						p.cellAt[group[idx]] = Coord{s.x, s.y}
						idx++
					}
				}
				return idx < len(group)
			})
		}
		if idx < len(group) {
			return &ErrInfeasible{Reason: fmt.Sprintf("M-slice capacity exhausted (%d/%d LUTRAM/SRL placed)", idx, len(group))}
		}
	}
	return nil
}

// groupStart returns the jittered starting CLB column index for a
// sequential group; compact placements always start at 0.
func (p *placer) groupStart() int {
	n := len(p.cols) / fabric.SlicesPerCLB
	if p.spread <= 1.02 || n == 0 {
		return 0
	}
	return p.rng.Intn(n)
}

// scanCLBs visits every CLB, column-major from CLB column start
// (wrapping) in serpentine row order, handing fn the CLB's csOf index
// and its two slice sites, until fn returns false. Sequential cells fill
// CLB-major so one control set claims as few CLBs as possible; the
// serpentine keeps cells consecutive in fill order physically adjacent
// across column boundaries.
func (p *placer) scanCLBs(start int, fn func(clb int, s0, s1 *site) bool) {
	nPairs := len(p.cols) / fabric.SlicesPerCLB
	rows := p.rows
	for i := 0; i < nPairs; i++ {
		pair := (start + i) % nPairs
		c0 := &p.cols[pair*fabric.SlicesPerCLB]
		c1 := &p.cols[pair*fabric.SlicesPerCLB+1]
		for rr := 0; rr < rows; rr++ {
			r := rr
			if i%2 == 1 {
				r = rows - 1 - rr
			}
			if !fn(pair*rows+r, &p.sites[c0.first+r], &p.sites[c1.first+r]) {
				return
			}
		}
	}
}

func (p *placer) windowOf(col *sliceCol, pass int) (int, int) {
	if pass == 0 {
		return col.lo, col.hi
	}
	return 0, p.rows
}

// placeFFs packs flip-flops by control set into CLBs, each group filling
// contiguously from a jittered start.
func (p *placer) placeFFs() error {
	for _, g := range p.plan.ffs {
		group, cs := g.cells, g.cs
		idx := 0
		start := p.groupStart()
		for pass := 0; pass < 2 && idx < len(group); pass++ {
			p.scanCLBs(start, func(clb int, s0, s1 *site) bool {
				for _, s := range [2]*site{s0, s1} {
					if s.ffFree <= 0 || s.mem {
						continue
					}
					if !p.csCompatible(clb, cs, false) {
						continue
					}
					cap := int(s.ffCap)
					if pass == 1 {
						cap = fabric.FFsPerSlice
					}
					fill := minInt(cap-(fabric.FFsPerSlice-int(s.ffFree)), int(s.ffFree))
					if fill <= 0 {
						continue
					}
					for f := 0; f < fill && idx < len(group); f++ {
						p.csCompatible(clb, cs, true)
						s.ffFree--
						s.used = true
						p.cellAt[group[idx]] = Coord{s.x, s.y}
						idx++
					}
				}
				return idx < len(group)
			})
		}
		if idx < len(group) {
			return &ErrInfeasible{Reason: fmt.Sprintf("control set %d: FF capacity exhausted (%d/%d placed)", cs, idx, len(group))}
		}
	}
	return nil
}

// placeLUTs packs the logic LUTs, if the rectangle can hold them. How
// many the fill loop can place is fixed on entry — its second pass is
// exhaustive, its first only takes slots the second would have filled —
// so a probe that cannot place is rejected by counting, and the loop
// runs only for probes that will (TestLUTCountMatchesFill).
func (p *placer) placeLUTs() error {
	n := len(p.plan.luts)
	if n == 0 {
		return nil
	}
	placed := p.lutCapacity()
	if placed >= n {
		placed = p.fillLUTs()
	}
	if placed < n {
		return &ErrInfeasible{Reason: fmt.Sprintf("LUT capacity exhausted (%d/%d placed)", placed, n)}
	}
	return nil
}

// lutCapacity counts the LUT slots left for logic: the free LUTs of
// every slice that is not a memory slice.
func (p *placer) lutCapacity() int {
	total := 0
	for i := range p.sites {
		if s := &p.sites[i]; !s.mem {
			total += int(s.lutFree)
		}
	}
	return total
}

// fillLUTs packs logic LUTs netlist-aware and returns how many it
// placed: each LUT is pulled toward the centroid of its already-placed
// input drivers (memory banks, carry chains, registers, earlier LUTs),
// so read multiplexers land next to their RAMs and dataflow stays
// local. LUTs with no placed inputs continue from the previous cell's
// position.
func (p *placer) fillLUTs() int {
	pl := p.plan
	prev := Coord{int16(p.cols[0].x), int16(p.rect.Y0 + p.cols[0].lo)}
	placedCount := 0
	for pass := 0; pass < 2 && placedCount < len(pl.luts); pass++ {
		room := p.countLUTRoom(pass)
		for i, lut := range pl.luts {
			if room == 0 {
				// No site is left under this pass's rules, so every
				// remaining LUT would search in vain (and move nothing:
				// prev only follows placements).
				break
			}
			if p.cellAt[lut].X >= 0 {
				continue
			}
			want := p.centroidOf(pl.drivers[pl.driverStart[i]:pl.driverStart[i+1]], prev)
			s, col := p.findLUTSlot(want, pass)
			if s == nil {
				continue // retry in the unconstrained pass
			}
			s.lutFree--
			s.used = true
			if !lutFits(s, pass) {
				p.lutRoom[col]--
				room--
			}
			at := Coord{s.x, s.y}
			p.cellAt[lut] = at
			prev = at
			placedCount++
		}
	}
	return placedCount
}

// lutFits reports whether slice s can accept one more LUT under the
// pass's fill cap: pass 0 honors the spread cap, pass 1 the hardware's.
func lutFits(s *site, pass int) bool {
	if s.lutFree <= 0 || s.mem {
		return false
	}
	cap := int(s.lutCap)
	if pass == 1 {
		cap = fabric.LUTsPerSlice
	}
	return fabric.LUTsPerSlice-int(s.lutFree) < cap
}

// countLUTRoom fills lutRoom for a placeLUTs pass — per slice column,
// the sites inside the pass's window that lutFits — and returns the
// total. placeLUTs keeps both current as sites fill up. A column at zero
// is one slotInColumn would search without finding anything, so
// findLUTSlot skips it unsearched.
func (p *placer) countLUTRoom(pass int) int {
	if cap(p.lutRoom) < len(p.cols) {
		p.lutRoom = make([]int, len(p.cols))
	}
	p.lutRoom = p.lutRoom[:len(p.cols)]
	total := 0
	for i := range p.cols {
		col := &p.cols[i]
		lo, hi := p.windowOf(col, pass)
		n := 0
		for r := lo; r < hi; r++ {
			if lutFits(&p.sites[col.first+r], pass) {
				n++
			}
		}
		p.lutRoom[i] = n
		total += n
	}
	return total
}

// centroidOf averages the positions of already-placed driver cells;
// without any, it continues from the previous placement.
func (p *placer) centroidOf(drv []netlist.CellID, prev Coord) Coord {
	sx, sy, n := 0, 0, 0
	for _, d := range drv {
		at := p.cellAt[d]
		if at.X >= 0 {
			sx += int(at.X)
			sy += int(at.Y)
			n++
		}
	}
	if n == 0 {
		return prev
	}
	return Coord{int16(sx / n), int16(sy / n)}
}

// findLUTSlot locates a free LUT slot near the desired coordinate,
// walking slice columns outward by horizontal distance and rows outward
// from the desired row, and returns it with its slice column's index.
// Pass 0 honors the spread windows and fill caps; pass 1 accepts any
// capacity.
func (p *placer) findLUTSlot(want Coord, pass int) (*site, int) {
	n := len(p.cols)
	// Nearest column index for the desired x: the first column at or
	// right of it, the last one when there is none (columns are x-sorted,
	// two slice columns per CLB column).
	ci, hi := 0, n-1
	for ci < hi {
		if mid := (ci + hi) / 2; p.cols[mid].x < int(want.X) {
			ci = mid + 1
		} else {
			hi = mid
		}
	}
	maxD := n
	if pass == 0 && maxD > 16 {
		maxD = 16 // pass 0 is a locality search; pass 1 is exhaustive
	}
	for d := 0; d < maxD; d++ {
		for k, colIdx := range [2]int{ci - d, ci + d} {
			if k == 1 && d == 0 {
				break // the center column was just visited
			}
			if colIdx < 0 || colIdx >= n || p.lutRoom[colIdx] == 0 {
				continue
			}
			col := &p.cols[colIdx]
			lo, hi := p.windowOf(col, pass)
			if s := p.slotInColumn(col, lo, hi, int(want.Y)-p.rect.Y0, pass); s != nil {
				return s, colIdx
			}
		}
	}
	return nil, -1
}

// slotInColumn searches rows [lo, hi) outward from wantRow for a slice
// that can accept one more LUT under the pass's fill cap. Slices that
// already hold logic are preferred within a small radius so the packer
// fills slices before opening new ones (area optimization); a fresh
// slice at the exact spot only wins when no started slice is nearby.
func (p *placer) slotInColumn(col *sliceCol, lo, hi, wantRow, pass int) *site {
	if hi <= lo {
		return nil
	}
	if wantRow < lo {
		wantRow = lo
	}
	if wantRow >= hi {
		wantRow = hi - 1
	}
	maxD := hi - lo
	if pass == 0 && maxD > 24 {
		maxD = 24
	}
	const packRadius = 6
	var fresh *site
	freshD := 0
	for d := 0; d < maxD; d++ {
		for k, r := range [2]int{wantRow - d, wantRow + d} {
			if k == 1 && d == 0 {
				break
			}
			if r < lo || r >= hi {
				continue
			}
			s := &p.sites[col.first+r]
			if !lutFits(s, pass) {
				continue
			}
			if s.used {
				return s // partially filled: pack here
			}
			if fresh == nil {
				fresh, freshD = s, d
			}
			// A fresh slice is only taken once no started slice shows
			// up within packRadius of it.
			if fresh != nil && d >= freshD+packRadius {
				return fresh
			}
		}
	}
	return fresh
}

// placeBlocks assigns BRAM and DSP cells to block sites inside the rect.
func (p *placer) placeBlocks() error {
	brams, dsps := p.plan.brams, p.plan.dsps
	if len(brams) == 0 && len(dsps) == 0 {
		return nil
	}
	rc := p.dev.RectResources(p.rect)
	if rc.BRAM < len(brams) {
		return &ErrInfeasible{Reason: fmt.Sprintf("need %d BRAM, rect has %d", len(brams), rc.BRAM)}
	}
	if rc.DSP < len(dsps) {
		return &ErrInfeasible{Reason: fmt.Sprintf("need %d DSP, rect has %d", len(dsps), rc.DSP)}
	}
	bi, di := 0, 0
	for x := maxInt(p.rect.X0, 0); x <= minInt(p.rect.X1, p.dev.NumCols()-1); x++ {
		switch p.dev.KindAt(x) {
		case fabric.ColBRAM:
			for y := alignUp(p.rect.Y0, fabric.BRAMRows); y+fabric.BRAMRows-1 <= p.rect.Y1 && bi < len(brams); y += fabric.BRAMRows {
				p.cellAt[brams[bi]] = Coord{int16(x), int16(y)}
				bi++
			}
		case fabric.ColDSP:
			for y := alignUp(p.rect.Y0, fabric.DSPRows); y+fabric.DSPRows-1 <= p.rect.Y1 && di < len(dsps); y += fabric.DSPRows {
				for k := 0; k < fabric.DSPPerTile && di < len(dsps); k++ {
					p.cellAt[dsps[di]] = Coord{int16(x), int16(y)}
					di++
				}
			}
		}
	}
	if bi < len(brams) || di < len(dsps) {
		return &ErrInfeasible{Reason: "block site assignment failed"}
	}
	return nil
}

func alignUp(v, pitch int) int {
	if v <= 0 {
		return 0
	}
	return ((v + pitch - 1) / pitch) * pitch
}

// footprint computes the column-wise occupied outline.
func (p *placer) footprint() Footprint {
	f := Footprint{
		Width: p.rect.Width(),
		Rows:  p.rect.Height(),
		Cols:  make([]RowSpan, p.rect.Width()),
	}
	for i := range f.Cols {
		f.Cols[i] = RowSpan{Min: math.MaxInt32, Max: -1}
	}
	mark := func(x, y int16) {
		rel := int(x) - p.rect.X0
		if rel < 0 || rel >= f.Width {
			return
		}
		c := &f.Cols[rel]
		c.Used++
		if int(y)-p.rect.Y0 < c.Min {
			c.Min = int(y) - p.rect.Y0
		}
		if int(y)-p.rect.Y0 > c.Max {
			c.Max = int(y) - p.rect.Y0
		}
	}
	for i := range p.sites {
		if p.sites[i].used {
			mark(p.sites[i].x, p.sites[i].y)
		}
	}
	// Block cells (BRAM/DSP) occupy their full tile pitch.
	markBlocks := func(cells []netlist.CellID, pitch int) {
		for _, ci := range cells {
			at := p.cellAt[ci]
			if at.X < 0 {
				continue
			}
			for dy := 0; dy < pitch; dy++ {
				mark(at.X, at.Y+int16(dy))
			}
		}
	}
	markBlocks(p.plan.brams, fabric.BRAMRows)
	markBlocks(p.plan.dsps, fabric.DSPRows)
	return f
}
