// Package oracle is the flow's differential verification layer: a
// deliberately slow, brute-force reference implementation of every core
// contract the fast paths promise — placement legality inside a PBlock,
// stitched-design legality (no block overlap, column compatibility,
// region containment), stitch cost recomputed from scratch, minimal-CF
// verdicts re-probed linearly, and cached implementations byte-equal to
// fresh runs.
//
// Nothing here is optimized, shares code with the subsystems it audits,
// or trusts their caches: every checker recomputes its verdict from
// first principles (maps and plain loops), which is exactly what makes
// it a useful cross-check after a refactor of the fast paths. The
// companion Chaos type (chaos.go) injects the faults each checker
// exists to catch, so the test suite can prove no checker is dead code.
package oracle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"macroflow/internal/fabric"
	"macroflow/internal/netlist"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/stitch"
)

// Checker names, used as the Violation.Checker discriminator and as the
// obs counter suffix (oracle.violations.<checker>).
const (
	CheckerImplementation = "implementation"
	CheckerPlacement      = "placement"
	CheckerCost           = "cost"
	CheckerMinCF          = "mincf"
	CheckerCache          = "cache"
	CheckerPartition      = "partition"
)

// Violation is one broken contract found by a checker (also its
// api/v1 wire form, hence the JSON tags).
type Violation struct {
	// Checker names the contract that failed (Checker* constants).
	Checker string `json:"checker"`
	// Subject is the block, instance or artifact the violation is about.
	Subject string `json:"subject"`
	// Detail is the human-readable discrepancy.
	Detail string `json:"detail"`
}

// String renders the violation on one line.
func (v Violation) String() string {
	return fmt.Sprintf("%s[%s]: %s", v.Checker, v.Subject, v.Detail)
}

// Report accumulates the outcome of a verification pass: how many
// contract checks ran and every violation found. The zero value is
// ready to use. It is also the api/v1 wire form of a verification
// outcome (apiv1.VerifySummary), hence the JSON tags.
type Report struct {
	// Checks counts individual contract checks performed (a clean run
	// with Checks == 0 verified nothing).
	Checks int `json:"checks"`
	// Violations lists every broken contract, in discovery order.
	Violations []Violation `json:"violations,omitempty"`
}

// count tallies one performed check.
func (r *Report) count() { r.Checks++ }

// Violate records a violation. Exported so fault-injection tests and
// flow wiring can stamp context-specific violations through the same
// report.
func (r *Report) Violate(checker, subject, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Checker: checker,
		Subject: subject,
		Detail:  fmt.Sprintf(format, args...),
	})
}

// Ok reports whether the pass found no violations.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// ByChecker counts the violations attributed to one checker.
func (r *Report) ByChecker(checker string) int {
	n := 0
	for _, v := range r.Violations {
		if v.Checker == checker {
			n++
		}
	}
	return n
}

// Err returns nil for a clean report, or an error summarizing the first
// violation (and the total count) otherwise.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	return fmt.Errorf("oracle: %d violation(s), first: %s", len(r.Violations), r.Violations[0])
}

// String renders the report: a one-line summary plus one line per
// violation.
func (r *Report) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "oracle: %d checks, %d violations", r.Checks, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return b.String()
}

// Merge folds another report into r.
func (r *Report) Merge(o *Report) {
	if o == nil {
		return
	}
	r.Checks += o.Checks
	r.Violations = append(r.Violations, o.Violations...)
}

// --- block-level placement legality -----------------------------------

// tileKey addresses one device tile.
type tileKey struct{ x, y int }

// CheckImplementation audits one block implementation from first
// principles: the PBlock rectangle contained on the device, every cell
// placed inside it on a column of the right kind, per-tile capacities
// honored, one control set per CLB, carry chains vertically contiguous,
// BRAM/DSP sites aligned, and the used-slice count within the PBlock's
// capacity. It recounts everything from CellAt with plain maps — no
// placer state is trusted.
func CheckImplementation(dev *fabric.Device, impl *pblock.Implementation, rep *Report) {
	rep.count()
	subject := "?"
	if impl != nil && impl.Placement != nil && impl.Placement.Module != nil {
		subject = impl.Placement.Module.Name
	}
	if impl == nil || impl.Placement == nil {
		rep.Violate(CheckerImplementation, subject, "missing implementation or placement")
		return
	}
	pl := impl.Placement
	m := pl.Module
	r := pl.Rect

	// Region containment: the PBlock must be a valid on-device rectangle.
	if !r.Valid() || r.X0 < 0 || r.Y0 < 0 || r.X1 >= dev.NumCols() || r.Y1 >= dev.Rows {
		rep.Violate(CheckerImplementation, subject, "PBlock %v outside device %dx%d", r, dev.NumCols(), dev.Rows)
		return
	}
	if impl.PBlock.Rect != r {
		rep.Violate(CheckerImplementation, subject, "placement rect %v != PBlock rect %v", r, impl.PBlock.Rect)
	}
	if len(pl.CellAt) != len(m.Cells) {
		rep.Violate(CheckerImplementation, subject, "%d coords for %d cells", len(pl.CellAt), len(m.Cells))
		return
	}

	// Brute-force per-tile recount.
	type tileUse struct {
		lut, mem, ff, carry int
		cs                  int32
		hasCS               bool
	}
	tiles := map[tileKey]*tileUse{}
	use := func(k tileKey) *tileUse {
		u := tiles[k]
		if u == nil {
			u = &tileUse{cs: netlist.NoID}
			tiles[k] = u
		}
		return u
	}
	claimCS := func(k tileKey, cs int32) {
		u := use(k)
		if u.hasCS && u.cs != cs {
			rep.Violate(CheckerImplementation, subject,
				"CLB (%d,%d) mixes control sets %d and %d", k.x, k.y, u.cs, cs)
		}
		u.cs, u.hasCS = cs, true
	}
	chains := map[int32]map[int32]tileKey{}

	for ci := range m.Cells {
		c := &m.Cells[ci]
		at := pl.CellAt[ci]
		x, y := int(at.X), int(at.Y)
		if x < 0 || y < 0 {
			rep.Violate(CheckerImplementation, subject, "cell %d (%v) unplaced", ci, c.Kind)
			continue
		}
		if !r.Contains(x, y) {
			rep.Violate(CheckerImplementation, subject,
				"cell %d at (%d,%d) outside PBlock %v", ci, x, y, r)
			continue
		}
		k := tileKey{x, y}
		kind := dev.KindAt(x)
		switch c.Kind {
		case netlist.CellLUT:
			if kind != fabric.ColCLBL && kind != fabric.ColCLBM {
				rep.Violate(CheckerImplementation, subject, "LUT %d on %v column", ci, kind)
			}
			use(k).lut++
		case netlist.CellFF:
			if kind != fabric.ColCLBL && kind != fabric.ColCLBM {
				rep.Violate(CheckerImplementation, subject, "FF %d on %v column", ci, kind)
			}
			use(k).ff++
			claimCS(k, c.ControlSet)
		case netlist.CellLUTRAM, netlist.CellSRL:
			if kind != fabric.ColCLBM {
				rep.Violate(CheckerImplementation, subject,
					"%v %d needs a CLBM column, got %v", c.Kind, ci, kind)
			}
			use(k).mem++
			claimCS(k, c.ControlSet)
		case netlist.CellCarry:
			if kind != fabric.ColCLBL && kind != fabric.ColCLBM {
				rep.Violate(CheckerImplementation, subject, "carry %d on %v column", ci, kind)
			}
			use(k).carry++
			if chains[c.Chain] == nil {
				chains[c.Chain] = map[int32]tileKey{}
			}
			chains[c.Chain][c.ChainPos] = k
		case netlist.CellBRAM:
			if kind != fabric.ColBRAM {
				rep.Violate(CheckerImplementation, subject, "BRAM %d on %v column", ci, kind)
			} else if y%fabric.BRAMRows != 0 {
				rep.Violate(CheckerImplementation, subject, "BRAM %d misaligned at row %d", ci, y)
			}
		case netlist.CellDSP:
			if kind != fabric.ColDSP {
				rep.Violate(CheckerImplementation, subject, "DSP %d on %v column", ci, kind)
			} else if y%fabric.DSPRows != 0 {
				rep.Violate(CheckerImplementation, subject, "DSP %d misaligned at row %d", ci, y)
			}
		}
	}

	lutSites := fabric.SlicesPerCLB * fabric.LUTsPerSlice
	ffSites := fabric.SlicesPerCLB * fabric.FFsPerSlice
	for k, u := range tiles {
		if u.lut+u.mem > lutSites {
			rep.Violate(CheckerImplementation, subject,
				"tile (%d,%d) holds %d LUT-site users (max %d)", k.x, k.y, u.lut+u.mem, lutSites)
		}
		if u.mem > fabric.LUTRAMPerMSlice {
			rep.Violate(CheckerImplementation, subject,
				"tile (%d,%d) holds %d memory cells (max %d)", k.x, k.y, u.mem, fabric.LUTRAMPerMSlice)
		}
		if u.ff > ffSites {
			rep.Violate(CheckerImplementation, subject,
				"tile (%d,%d) holds %d FFs (max %d)", k.x, k.y, u.ff, ffSites)
		}
		if u.carry > fabric.SlicesPerCLB {
			rep.Violate(CheckerImplementation, subject,
				"tile (%d,%d) holds %d carry segments (max %d)", k.x, k.y, u.carry, fabric.SlicesPerCLB)
		}
		if u.lut+u.mem+u.carry*fabric.LUTsPerSlice > lutSites {
			rep.Violate(CheckerImplementation, subject,
				"tile (%d,%d) overcommits LUT sites (%d logic + %d mem + %d carry slices)",
				k.x, k.y, u.lut, u.mem, u.carry)
		}
	}

	// Carry chains: every segment present, vertically contiguous in one
	// column.
	for id, segs := range chains {
		var prev tileKey
		for pos := int32(0); int(pos) < len(segs); pos++ {
			at, ok := segs[pos]
			if !ok {
				rep.Violate(CheckerImplementation, subject, "chain %d missing segment %d", id, pos)
				break
			}
			if pos > 0 && (at.x != prev.x || at.y != prev.y+1) {
				rep.Violate(CheckerImplementation, subject, "chain %d breaks at segment %d", id, pos)
				break
			}
			prev = at
		}
	}

	// Fabric capacity: the used slices must fit the PBlock.
	if capSlices := dev.RectResources(r).Slices(); pl.UsedSlices > capSlices {
		rep.Violate(CheckerImplementation, subject,
			"%d used slices in a %d-slice PBlock", pl.UsedSlices, capSlices)
	}
	if !impl.Route.Feasible {
		rep.Violate(CheckerImplementation, subject, "implementation carries an infeasible route")
	}
}

// --- stitched-design legality ------------------------------------------

// CheckPlacement audits a stitched placement from first principles:
// every placed instance fully on the device (region containment), on
// columns whose kind sequence matches the block's home span (fabric
// capacity per tile type), BRAM/DSP rows aligned, and no two instances
// overlapping on any tile (no PBlock overlap). Occupancy is rebuilt
// tile-by-tile into a map — the stitcher's bitset is never consulted.
func CheckPlacement(p *stitch.Problem, origins []stitch.Origin, rep *Report) {
	rep.count()
	dev := p.Dev
	if len(origins) != len(p.Instances) {
		rep.Violate(CheckerPlacement, "design",
			"%d origins for %d instances", len(origins), len(p.Instances))
		return
	}
	owner := map[tileKey]int{}
	for ii, o := range origins {
		if !o.Placed {
			continue
		}
		inst := p.Instances[ii]
		if inst.Block < 0 || inst.Block >= len(p.Blocks) {
			rep.Violate(CheckerPlacement, inst.Name, "block index %d out of range", inst.Block)
			continue
		}
		b := &p.Blocks[inst.Block]
		// Column-kind compatibility with the home span, one column at a
		// time (the brute-force version of SignatureMatches).
		for dx := 0; dx < b.Width; dx++ {
			x := o.X + dx
			if x < 0 || x >= dev.NumCols() {
				rep.Violate(CheckerPlacement, inst.Name,
					"column %d outside device (0..%d)", x, dev.NumCols()-1)
				continue
			}
			if hx := b.HomeX + dx; hx >= 0 && hx < dev.NumCols() && dev.KindAt(x) != dev.KindAt(hx) {
				rep.Violate(CheckerPlacement, inst.Name,
					"column %d kind %v incompatible with home column %d kind %v",
					x, dev.KindAt(x), hx, dev.KindAt(hx))
			}
			// BRAM/DSP row alignment: relocating off the tile pitch would
			// strand sites.
			if x >= 0 && x < dev.NumCols() {
				switch dev.KindAt(x) {
				case fabric.ColBRAM:
					if o.Y%fabric.BRAMRows != 0 {
						rep.Violate(CheckerPlacement, inst.Name,
							"BRAM column %d shifted to row %d (pitch %d)", x, o.Y, fabric.BRAMRows)
					}
				case fabric.ColDSP:
					if o.Y%fabric.DSPRows != 0 {
						rep.Violate(CheckerPlacement, inst.Name,
							"DSP column %d shifted to row %d (pitch %d)", x, o.Y, fabric.DSPRows)
					}
				}
			}
		}
		// Region containment plus exclusive tile ownership over the full
		// row interval of every span — the stitcher's consumption model.
		for _, s := range b.Spans {
			x := o.X + s.DX
			if x < 0 || x >= dev.NumCols() {
				continue // already reported above
			}
			lo, hi := o.Y+s.Min, o.Y+s.Max
			if lo < 0 || hi >= dev.Rows {
				rep.Violate(CheckerPlacement, inst.Name,
					"rows %d..%d of column %d outside device (0..%d)", lo, hi, x, dev.Rows-1)
				continue
			}
			for y := lo; y <= hi; y++ {
				k := tileKey{x, y}
				if other, taken := owner[k]; taken {
					rep.Violate(CheckerPlacement, inst.Name,
						"tile (%d,%d) already occupied by %s", x, y, p.Instances[other].Name)
				} else {
					owner[k] = ii
				}
			}
		}
	}
}

// CheckCost recomputes the stitched design's wirelength cost from
// scratch — weighted Manhattan distance between placed endpoints' block
// centers, summed in net order, penalties excluded — and compares it to
// the reported FinalCost with ==. It also recounts Placed/Unplaced
// against the origins. Every term is a whole number of 1/32 (weights in
// sixteenths, centres in halves), so the float64 sums here and the
// stitcher's integer units are both exact and must agree to the bit.
func CheckCost(p *stitch.Problem, origins []stitch.Origin, reported float64, placed, unplaced int, rep *Report) {
	rep.count()
	if len(origins) != len(p.Instances) {
		rep.Violate(CheckerCost, "design",
			"%d origins for %d instances", len(origins), len(p.Instances))
		return
	}
	gotPlaced, gotUnplaced := 0, 0
	for _, o := range origins {
		if o.Placed {
			gotPlaced++
		} else {
			gotUnplaced++
		}
	}
	if gotPlaced != placed || gotUnplaced != unplaced {
		rep.Violate(CheckerCost, "design",
			"reported %d placed / %d unplaced, origins say %d / %d",
			placed, unplaced, gotPlaced, gotUnplaced)
	}
	if cost := RecomputeCost(p, origins); cost != reported {
		rep.Violate(CheckerCost, "design",
			"reported final cost %v, from-scratch recomputation %v", reported, cost)
	}
}

// RecomputeCost is the reference wirelength: weighted Manhattan distance
// between the centers of placed net endpoints, nets with an unplaced
// endpoint contributing zero (the flow reports penalties separately),
// plus each placed anchor's weighted distance to its fixed point (the
// cut-pull term of sharded sub-problems).
func RecomputeCost(p *stitch.Problem, origins []stitch.Origin) float64 {
	cost := 0.0
	for ni := range p.Nets {
		n := &p.Nets[ni]
		if n.From < 0 || n.From >= len(origins) || n.To < 0 || n.To >= len(origins) {
			continue
		}
		of, ot := origins[n.From], origins[n.To]
		if !of.Placed || !ot.Placed {
			continue
		}
		bf := &p.Blocks[p.Instances[n.From].Block]
		bt := &p.Blocks[p.Instances[n.To].Block]
		fx := float64(of.X) + float64(bf.Width)/2
		fy := float64(of.Y) + float64(bf.Height)/2
		tx := float64(ot.X) + float64(bt.Width)/2
		ty := float64(ot.Y) + float64(bt.Height)/2
		cost += n.Weight * (math.Abs(fx-tx) + math.Abs(fy-ty))
	}
	for ai := range p.Anchors {
		an := &p.Anchors[ai]
		if an.Inst < 0 || an.Inst >= len(origins) || !origins[an.Inst].Placed {
			continue
		}
		b := &p.Blocks[p.Instances[an.Inst].Block]
		o := origins[an.Inst]
		cx := float64(o.X) + float64(b.Width)/2
		cy := float64(o.Y) + float64(b.Height)/2
		cost += an.Weight * (math.Abs(cx-an.X) + math.Abs(cy-an.Y))
	}
	return cost
}

// --- partition feasibility ----------------------------------------------

// CheckPartition audits an instance→member assignment from first
// principles: completeness (every instance mapped to a real member),
// per-member capacity honored against a tile-by-tile demand recount,
// and the reported cut weight equal (==) to a from-scratch
// recomputation over the net list: weights are whole sixteenths, so
// their sum is exact in any order. The demand recount walks every span
// one row at a time and counts BRAM/DSP tiles by repeated subtraction —
// it shares no arithmetic with the partitioner's vectorized fast path.
func CheckPartition(p *stitch.Problem, caps []fabric.ResourceCount, assign []int, reportedCut float64, rep *Report) {
	rep.count()
	if len(assign) != len(p.Instances) {
		rep.Violate(CheckerPartition, "design",
			"%d assignments for %d instances", len(assign), len(p.Instances))
		return
	}
	if len(caps) == 0 {
		rep.Violate(CheckerPartition, "design", "no member capacities")
		return
	}
	util := make([]fabric.ResourceCount, len(caps))
	for ii, k := range assign {
		if k < 0 || k >= len(caps) {
			rep.Violate(CheckerPartition, p.Instances[ii].Name,
				"assigned to member %d of %d", k, len(caps))
			continue
		}
		inst := p.Instances[ii]
		if inst.Block < 0 || inst.Block >= len(p.Blocks) {
			rep.Violate(CheckerPartition, inst.Name, "block index %d out of range", inst.Block)
			continue
		}
		d := recountDemand(p.Dev, &p.Blocks[inst.Block])
		util[k].SlicesL += d.SlicesL
		util[k].SlicesM += d.SlicesM
		util[k].BRAM += d.BRAM
		util[k].DSP += d.DSP
	}
	for k := range caps {
		if !caps[k].Covers(util[k]) {
			rep.Violate(CheckerPartition, fmt.Sprintf("member %d", k),
				"demand %+v exceeds capacity %+v", util[k], caps[k])
		}
	}
	cut := 0.0
	for ni := range p.Nets {
		n := &p.Nets[ni]
		if n.From < 0 || n.From >= len(assign) || n.To < 0 || n.To >= len(assign) {
			continue
		}
		if assign[n.From] != assign[n.To] {
			cut += n.Weight
		}
	}
	if cut != reportedCut {
		rep.Violate(CheckerPartition, "design",
			"reported cut weight %v, from-scratch recomputation %v", reportedCut, cut)
	}
}

// recountDemand is the reference resource demand of one block: every
// span walked one row at a time, BRAM/DSP tile counts accumulated by
// repeated subtraction rather than ceiling division.
func recountDemand(dev *fabric.Device, b *stitch.Block) fabric.ResourceCount {
	var rc fabric.ResourceCount
	for _, s := range b.Spans {
		x := b.HomeX + s.DX
		if x < 0 || x >= dev.NumCols() || s.Max < s.Min {
			continue
		}
		rows := 0
		for y := s.Min; y <= s.Max; y++ {
			rows++
		}
		switch dev.KindAt(x) {
		case fabric.ColCLBL:
			for r := 0; r < rows; r++ {
				rc.SlicesL += fabric.SlicesPerCLB
			}
		case fabric.ColCLBM:
			for r := 0; r < rows; r++ {
				rc.SlicesL++
				rc.SlicesM++
			}
		case fabric.ColBRAM:
			for rem := rows; rem > 0; rem -= fabric.BRAMRows {
				rc.BRAM++
			}
		case fabric.ColDSP:
			for rem := rows; rem > 0; rem -= fabric.DSPRows {
				for s := 0; s < fabric.DSPPerTile; s++ {
					rc.DSP++
				}
			}
		}
	}
	return rc
}

// --- minimal-CF feasibility re-probe ------------------------------------

// CheckMinCF re-probes a claimed correction factor with fresh
// from-scratch implement runs: the claimed CF must be feasible, and —
// when the claim is minimality on the search grid — a grid tick, with
// the window's ticks below it all infeasible. below bounds how many
// ticks under the claim are re-probed (0 = none, feasibility only;
// negative = every tick down to s.Start — the full linear re-probe).
func CheckMinCF(dev *fabric.Device, m *netlist.Module, shape place.ShapeReport, claimed float64, below int, s pblock.SearchConfig, cfg pblock.Config, rep *Report) {
	rep.count()
	if _, err := pblock.Implement(dev, m, shape, claimed, cfg); err != nil {
		rep.Violate(CheckerMinCF, m.Name, "claimed CF %.2f is not feasible: %v", claimed, err)
		return
	}
	step := pblock.TickOf(s.Step)
	if below == 0 || step < 1 {
		return
	}
	claim := pblock.TickOf(claimed)
	if claim.CF() != claimed {
		rep.Violate(CheckerMinCF, m.Name, "claimed minimal CF %v is not a grid point", claimed)
		return
	}
	// Walk the window's ticks from s.Start, collecting those strictly
	// under the claim, then re-probe the topmost `below` of them.
	var grid []pblock.Tick
	for t := pblock.TickOf(s.Start); t < claim && t.CF() <= s.Max; t += step {
		grid = append(grid, t)
	}
	if below > 0 && below < len(grid) {
		grid = grid[len(grid)-below:]
	}
	for _, t := range grid {
		if _, err := pblock.Implement(dev, m, shape, t.CF(), cfg); err == nil {
			rep.Violate(CheckerMinCF, m.Name,
				"CF %.2f below claimed minimum %.2f is feasible", t.CF(), claimed)
		}
	}
}

// --- cache-hit equivalence ----------------------------------------------

// implBytes is the canonical serialization compared by CheckEquivalence:
// everything observable about an implementation, ToolRuns excluded
// (run-count accounting legitimately differs between a cached replay and
// a fresh search).
type implBytes struct {
	CF           float64
	Rect         fabric.Rect
	TargetSlices int
	CellAt       []place.Coord
	UsedSlices   int
	Footprint    place.Footprint
	Route        interface{}
}

// marshalImpl serializes a search result for byte comparison.
func marshalImpl(sr pblock.SearchResult) ([]byte, error) {
	v := implBytes{CF: sr.CF}
	if sr.Impl != nil {
		v.Rect = sr.Impl.PBlock.Rect
		v.TargetSlices = sr.Impl.PBlock.TargetSlices
		v.Route = sr.Impl.Route
		if sr.Impl.Placement != nil {
			v.CellAt = sr.Impl.Placement.CellAt
			v.UsedSlices = sr.Impl.Placement.UsedSlices
			v.Footprint = sr.Impl.Placement.Footprint
		}
	}
	return json.Marshal(v)
}

// CheckEquivalence verifies that a cache-served search result is
// byte-equal to a fresh from-scratch run of the same search: same CF,
// same PBlock, same placement coordinates, same routing result. The
// comparison is over a canonical JSON serialization, so any divergence
// anywhere in the implementation is caught.
func CheckEquivalence(subject string, cached, fresh pblock.SearchResult, freshErr error, rep *Report) {
	rep.count()
	if freshErr != nil {
		rep.Violate(CheckerCache, subject,
			"cache served a result but a fresh run fails: %v", freshErr)
		return
	}
	cb, err1 := marshalImpl(cached)
	fb, err2 := marshalImpl(fresh)
	if err1 != nil || err2 != nil {
		rep.Violate(CheckerCache, subject, "serialization failed: %v / %v", err1, err2)
		return
	}
	if !bytes.Equal(cb, fb) {
		detail := fmt.Sprintf("cached CF %g vs fresh CF %g", cached.CF, fresh.CF)
		if cached.CF == fresh.CF {
			detail = fmt.Sprintf("implementations diverge (%d vs %d serialized bytes)", len(cb), len(fb))
		}
		rep.Violate(CheckerCache, subject, "cached implementation not byte-equal to fresh run: %s", detail)
	}
}
