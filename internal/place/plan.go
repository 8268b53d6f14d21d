package place

import (
	"hash/fnv"
	"sort"

	"macroflow/internal/fabric"
	"macroflow/internal/netlist"
)

// Plan is the part of detailed placement that depends on the module
// alone. A minimal-CF search places one module into hundreds of
// rectangles; everything here — the content seed, the packing order of
// every phase, each LUT's input drivers — is the same for all of them,
// so the search builds one Plan and calls Plan.Place per rectangle.
//
// A Plan belongs to one search, and so to one goroutine: probes run
// one at a time. It keeps the finished probe's site tables for the next
// probe to overwrite, so it should live exactly as long as the search
// that owns it.
type Plan struct {
	m   *netlist.Module
	rep ShapeReport

	// The cold packer's tables are built on its first run: a warm
	// start (Options.Warm) that transplants cleanly never needs them.
	prepared bool
	// seed is the default jitter seed, a hash of the module's content,
	// and stream the start of its random stream, which every probe on
	// the default seed replays instead of seeding a generator.
	seed   int64
	stream *seedStream
	// chains holds the cells of every carry chain bottom first, in
	// placement order: longest chain first, ties by chain ID.
	chains [][]netlist.CellID
	// mem and ffs are the LUTRAM/SRL and flip-flop cells grouped by
	// control set, in control-set creation order. Creation order tracks
	// the module's dataflow (and, in flattened multi-block netlists,
	// keeps each block's groups adjacent), which matters for wirelength.
	mem, ffs []seqGroup
	// luts lists the logic LUTs in cell order; the input drivers of
	// luts[i] are drivers[driverStart[i]:driverStart[i+1]].
	luts        []netlist.CellID
	driverStart []int32
	drivers     []netlist.CellID
	brams, dsps []netlist.CellID

	probe *placer // the last probe's placer, buffers and all
}

// seqGroup is the sequential cells of one kind set sharing a control set.
type seqGroup struct {
	cs    int32
	cells []netlist.CellID
}

// NewPlan returns the placement plan of module m with shape report rep
// (from QuickPlace). It is cheap: the tables are derived on the first
// cold Place.
func NewPlan(m *netlist.Module, rep ShapeReport) *Plan {
	return &Plan{m: m, rep: rep}
}

// Shape returns the shape report the plan was built with.
func (pl *Plan) Shape() ShapeReport { return pl.rep }

// Place performs detailed placement of module m inside rect on dev,
// using the shape report rep from QuickPlace. It is the one-shot form of
// NewPlan(m, rep).Place(dev, rect, opts); callers that place one module
// into several rectangles should hold the Plan.
func Place(dev *fabric.Device, m *netlist.Module, rep ShapeReport, rect fabric.Rect, opts Options) (*Placement, error) {
	return NewPlan(m, rep).Place(dev, rect, opts)
}

// Place performs detailed placement of the plan's module inside rect on
// dev. The result is a function of (module content, shape report, dev,
// rect, opts) only — identical whether the plan is fresh or has served
// any number of earlier probes.
func (pl *Plan) Place(dev *fabric.Device, rect fabric.Rect, opts Options) (*Placement, error) {
	if pl.probe == nil {
		pl.probe = &placer{plan: pl}
	}
	return pl.probe.place(dev, rect, opts)
}

// contentSeed derives the default jitter seed from the module's
// structural content — the byte stream the implementation cache's
// ModuleHash covers — never its name. Two modules the cache considers
// identical must place identically, or a cache hit could return a
// different placement than a fresh run.
func contentSeed(m *netlist.Module) int64 {
	h := fnv.New64a()
	_ = m.WriteContent(h) // a hash.Hash never returns a write error
	return int64(h.Sum64())
}

// prepare derives the cold packer's tables, once.
func (pl *Plan) prepare() {
	if pl.prepared {
		return
	}
	pl.prepared = true
	m := pl.m
	pl.seed = contentSeed(m)
	pl.stream = recordStream(pl.seed)

	type chain struct {
		id    int32
		cells []netlist.CellID
	}
	var chains []*chain
	chainByID := map[int32]*chain{}
	memAt, ffAt := map[int32]int{}, map[int32]int{}
	lutAt := make([]int32, len(m.Cells)) // LUT cell -> index in pl.luts
	pl.luts = make([]netlist.CellID, 0, pl.rep.Stats.LUTs)
	for ci := range m.Cells {
		c := &m.Cells[ci]
		id := netlist.CellID(ci)
		switch {
		case c.Kind == netlist.CellCarry:
			ch, ok := chainByID[c.Chain]
			if !ok {
				ch = &chain{id: c.Chain}
				chainByID[c.Chain] = ch
				chains = append(chains, ch)
			}
			for int(c.ChainPos) >= len(ch.cells) {
				ch.cells = append(ch.cells, netlist.NoID)
			}
			ch.cells[c.ChainPos] = id
		case c.Kind.NeedsMSlice():
			pl.mem = addToGroup(pl.mem, memAt, c.ControlSet, id)
		case c.Kind == netlist.CellFF:
			pl.ffs = addToGroup(pl.ffs, ffAt, c.ControlSet, id)
		case c.Kind == netlist.CellLUT:
			lutAt[ci] = int32(len(pl.luts))
			pl.luts = append(pl.luts, id)
		case c.Kind == netlist.CellBRAM:
			pl.brams = append(pl.brams, id)
		case c.Kind == netlist.CellDSP:
			pl.dsps = append(pl.dsps, id)
		}
	}
	sort.Slice(chains, func(i, j int) bool {
		if len(chains[i].cells) != len(chains[j].cells) {
			return len(chains[i].cells) > len(chains[j].cells)
		}
		return chains[i].id < chains[j].id
	})
	for _, ch := range chains {
		pl.chains = append(pl.chains, ch.cells)
	}
	sort.Slice(pl.mem, func(i, j int) bool { return pl.mem[i].cs < pl.mem[j].cs })
	sort.Slice(pl.ffs, func(i, j int) bool { return pl.ffs[i].cs < pl.ffs[j].cs })

	// Each LUT's input drivers in net order, as one CSR array: count
	// per LUT, prefix-sum, then fill through a cursor per LUT.
	lutSinks := func(fn func(lut int32, driver netlist.CellID)) {
		for ni := range m.Nets {
			n := &m.Nets[ni]
			if n.Driver == netlist.NoID {
				continue
			}
			for _, s := range n.Sinks {
				if m.Cells[s].Kind == netlist.CellLUT {
					fn(lutAt[s], n.Driver)
				}
			}
		}
	}
	pl.driverStart = make([]int32, len(pl.luts)+1)
	lutSinks(func(lut int32, _ netlist.CellID) { pl.driverStart[lut+1]++ })
	for i := range pl.luts {
		pl.driverStart[i+1] += pl.driverStart[i]
	}
	pl.drivers = make([]netlist.CellID, pl.driverStart[len(pl.luts)])
	cursor := append([]int32(nil), pl.driverStart[:len(pl.luts)]...)
	lutSinks(func(lut int32, driver netlist.CellID) {
		pl.drivers[cursor[lut]] = driver
		cursor[lut]++
	})
}

// addToGroup appends cell id to the group of control set cs, opening
// the group (indexed in at) on first sight.
func addToGroup(groups []seqGroup, at map[int32]int, cs int32, id netlist.CellID) []seqGroup {
	k, ok := at[cs]
	if !ok {
		k = len(groups)
		at[cs] = k
		groups = append(groups, seqGroup{cs: cs})
	}
	groups[k].cells = append(groups[k].cells, id)
	return groups
}
