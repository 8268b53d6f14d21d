// Package netlist holds the post-synthesis structural representation of a
// module: primitive cells (LUTs, flip-flops, CARRY4 segments, LUTRAMs,
// SRLs, block RAMs, DSPs), the nets connecting them, and the control sets
// governing sequential cells.
//
// The representation is intentionally flat — exactly what a placer needs —
// and carries the structural attributes the paper identifies as drivers of
// PBlock size (§V): control-set membership, carry-chain shape, and fanout.
package netlist

import "fmt"

// CellKind identifies a primitive cell type.
type CellKind uint8

const (
	// CellLUT is a logic LUT (up to 6 inputs).
	CellLUT CellKind = iota
	// CellFF is a flip-flop; it belongs to a control set.
	CellFF
	// CellCarry is one CARRY4 segment; carry cells of one chain must be
	// placed in vertically adjacent slices.
	CellCarry
	// CellLUTRAM is a LUT used as a 64x1 distributed RAM; it requires an
	// M-type slice and belongs to a (write-clock) control set.
	CellLUTRAM
	// CellSRL is a LUT used as a shift register; M-type slice, control set.
	CellSRL
	// CellBRAM is a RAMB36 block RAM site.
	CellBRAM
	// CellDSP is a DSP48 site.
	CellDSP

	numCellKinds
)

// String returns the vendor-ish primitive name.
func (k CellKind) String() string {
	switch k {
	case CellLUT:
		return "LUT"
	case CellFF:
		return "FF"
	case CellCarry:
		return "CARRY4"
	case CellLUTRAM:
		return "LUTRAM"
	case CellSRL:
		return "SRL"
	case CellBRAM:
		return "RAMB36"
	case CellDSP:
		return "DSP48"
	}
	return "?"
}

// NeedsMSlice reports whether the cell kind can only be placed in an
// M-type slice.
func (k CellKind) NeedsMSlice() bool { return k == CellLUTRAM || k == CellSRL }

// Sequential reports whether the cell kind is governed by a control set.
func (k CellKind) Sequential() bool {
	return k == CellFF || k == CellLUTRAM || k == CellSRL
}

// CellID indexes a cell within its module.
type CellID int32

// NetID indexes a net within its module.
type NetID int32

// NoID marks an absent cell/net/control-set reference.
const NoID = -1

// Cell is one primitive instance.
type Cell struct {
	Kind CellKind
	// ControlSet is the index of the cell's control set, or NoID for
	// combinational cells.
	ControlSet int32
	// Chain is the carry-chain index for CellCarry cells (NoID otherwise);
	// ChainPos is the cell's position from the chain bottom.
	Chain    int32
	ChainPos int32
}

// ControlSet is a unique (clock, reset, enable) signal grouping. Two
// sequential cells with different control sets cannot share a CLB (§V-B).
type ControlSet struct {
	Clk, Rst, En int32
}

// Net is a signal with one driver and a set of sink cells. A NoID driver
// models a module input port; an empty sink list models an output port.
type Net struct {
	Driver CellID
	Sinks  []CellID
}

// Fanout returns the number of sink pins on the net.
func (n *Net) Fanout() int { return len(n.Sinks) }

// Module is a flat post-synthesis netlist.
type Module struct {
	Name        string
	Cells       []Cell
	Nets        []Net
	ControlSets []ControlSet
	// Outputs lists nets that leave the module; their drivers are the
	// liveness roots for dead-code elimination.
	Outputs []NetID
	// LogicDepth is the longest combinational path in LUT levels, as
	// reported by elaboration; used by the timing model.
	LogicDepth int

	csIndex map[ControlSet]int32

	// chainNext is the first carry-chain ID no cell in Cells[:chainSeen]
	// uses; nextChain extends the scanned prefix instead of rescanning.
	chainNext int32
	chainSeen int
	// sinkArena is the unused tail of the current chunk AddSink carves
	// sink lists from.
	sinkArena []CellID
}

// MarkOutput records net n as a module output.
func (m *Module) MarkOutput(n NetID) { m.Outputs = append(m.Outputs, n) }

// NewModule returns an empty module with the given name.
func NewModule(name string) *Module {
	return &Module{Name: name, csIndex: make(map[ControlSet]int32)}
}

// AddControlSet interns a control set and returns its index.
func (m *Module) AddControlSet(cs ControlSet) int32 {
	if m.csIndex == nil {
		m.csIndex = make(map[ControlSet]int32)
	}
	if id, ok := m.csIndex[cs]; ok {
		return id
	}
	id := int32(len(m.ControlSets))
	m.ControlSets = append(m.ControlSets, cs)
	m.csIndex[cs] = id
	return id
}

// AddCell appends a combinational cell and returns its ID.
func (m *Module) AddCell(kind CellKind) CellID {
	m.Cells = append(m.Cells, Cell{Kind: kind, ControlSet: NoID, Chain: NoID, ChainPos: NoID})
	return CellID(len(m.Cells) - 1)
}

// AddSeqCell appends a sequential cell bound to control set cs.
func (m *Module) AddSeqCell(kind CellKind, cs int32) CellID {
	if !kind.Sequential() {
		panic(fmt.Sprintf("netlist: %v is not sequential", kind))
	}
	m.Cells = append(m.Cells, Cell{Kind: kind, ControlSet: cs, Chain: NoID, ChainPos: NoID})
	return CellID(len(m.Cells) - 1)
}

// AddCarryChain appends a chain of n CARRY4 cells and returns their IDs,
// bottom first.
func (m *Module) AddCarryChain(n int) []CellID {
	chain := m.nextChain()
	ids := make([]CellID, n)
	for i := 0; i < n; i++ {
		m.Cells = append(m.Cells, Cell{
			Kind: CellCarry, ControlSet: NoID,
			Chain: chain, ChainPos: int32(i),
		})
		ids[i] = CellID(len(m.Cells) - 1)
	}
	return ids
}

// nextChain returns a chain ID above every chain in use. Cells also
// arrive by direct append (ReadText, literal modules), so the counter is
// not kept by AddCarryChain alone: each call scans the cells appended
// since the last one, which keeps a module of many chains linear.
// Renumbering (synth's compaction) only lowers IDs, so a counter that
// missed it still never reuses one; a shrunken cell list starts the scan
// over so that the IDs stay dense after it.
func (m *Module) nextChain() int32 {
	if m.chainSeen > len(m.Cells) {
		m.chainSeen, m.chainNext = 0, 0
	}
	for i := m.chainSeen; i < len(m.Cells); i++ {
		if c := m.Cells[i].Chain; c >= m.chainNext {
			m.chainNext = c + 1
		}
	}
	m.chainSeen = len(m.Cells)
	return m.chainNext
}

// AddNet appends a net and returns its ID.
func (m *Module) AddNet(driver CellID, sinks ...CellID) NetID {
	m.Nets = append(m.Nets, Net{Driver: driver, Sinks: sinks})
	return NetID(len(m.Nets) - 1)
}

// AddSink connects an additional sink to an existing net.
func (m *Module) AddSink(n NetID, sink CellID) {
	s := m.Nets[n].Sinks
	if len(s) == cap(s) {
		s = m.growSinks(s)
	}
	m.Nets[n].Sinks = append(s, sink)
}

// sinkChunk is the size, in sinks, of one arena chunk. A module's nets
// are mostly of fanout one to six, so growing each list on the heap
// costs several allocations per net; carving the lists from chunks costs
// one per sinkChunk sinks.
const sinkChunk = 1024

// growSinks returns s moved to a piece of the sink arena of twice its
// capacity. The piece's capacity ends where the next piece begins, so an
// append can never reach a neighbouring net's sinks. Lists too long to
// share a chunk get a slice of their own.
func (m *Module) growSinks(s []CellID) []CellID {
	c := 2 * cap(s)
	if c < 2 {
		c = 2
	}
	if c > sinkChunk/4 {
		return append(make([]CellID, 0, c), s...)
	}
	if c > len(m.sinkArena) {
		m.sinkArena = make([]CellID, sinkChunk)
	}
	piece := m.sinkArena[:len(s):c]
	m.sinkArena = m.sinkArena[c:]
	copy(piece, s)
	return piece
}

// NumCells returns the number of cells.
func (m *Module) NumCells() int { return len(m.Cells) }

// CarryChains returns the length (in CARRY4 segments) of every carry
// chain, indexed by chain ID.
func (m *Module) CarryChains() []int {
	var lengths []int
	for i := range m.Cells {
		c := &m.Cells[i]
		if c.Kind != CellCarry {
			continue
		}
		for int(c.Chain) >= len(lengths) {
			lengths = append(lengths, 0)
		}
		lengths[c.Chain]++
	}
	return lengths
}

// Stats are the aggregate structural properties of a module — the raw
// material of the paper's "classical" feature set.
type Stats struct {
	LUTs        int // logic LUTs
	FFs         int
	Carrys      int // CARRY4 segments
	LUTRAMs     int
	SRLs        int
	BRAMs       int
	DSPs        int
	ControlSets int
	MaxFanout   int
	NumNets     int
	// MaxCarryChain is the longest carry chain in CARRY4 segments (one
	// segment per slice), the height constraint of the shape report.
	MaxCarryChain int
	NumChains     int
	LogicDepth    int
}

// MDemand returns the number of cells that require M-type slices.
func (s Stats) MDemand() int { return s.LUTRAMs + s.SRLs }

// TotalCells returns the total primitive count.
func (s Stats) TotalCells() int {
	return s.LUTs + s.FFs + s.Carrys + s.LUTRAMs + s.SRLs + s.BRAMs + s.DSPs
}

// ComputeStats scans the module once and returns its aggregate stats.
func (m *Module) ComputeStats() Stats {
	var s Stats
	usedCS := make(map[int32]bool)
	for i := range m.Cells {
		c := &m.Cells[i]
		switch c.Kind {
		case CellLUT:
			s.LUTs++
		case CellFF:
			s.FFs++
		case CellCarry:
			s.Carrys++
		case CellLUTRAM:
			s.LUTRAMs++
		case CellSRL:
			s.SRLs++
		case CellBRAM:
			s.BRAMs++
		case CellDSP:
			s.DSPs++
		}
		if c.ControlSet != NoID {
			usedCS[c.ControlSet] = true
		}
	}
	s.ControlSets = len(usedCS)
	s.NumNets = len(m.Nets)
	for i := range m.Nets {
		if f := m.Nets[i].Fanout(); f > s.MaxFanout {
			s.MaxFanout = f
		}
	}
	for _, l := range m.CarryChains() {
		if l > 0 {
			s.NumChains++
		}
		if l > s.MaxCarryChain {
			s.MaxCarryChain = l
		}
	}
	s.LogicDepth = m.LogicDepth
	return s
}

// Validate checks internal consistency: net endpoints in range, carry
// chains contiguous from position 0, sequential cells having control sets.
func (m *Module) Validate() error {
	nc := CellID(len(m.Cells))
	for ni := range m.Nets {
		n := &m.Nets[ni]
		if n.Driver != NoID && (n.Driver < 0 || n.Driver >= nc) {
			return fmt.Errorf("net %d: driver %d out of range", ni, n.Driver)
		}
		for _, s := range n.Sinks {
			if s < 0 || s >= nc {
				return fmt.Errorf("net %d: sink %d out of range", ni, s)
			}
		}
	}
	chainPos := map[int32][]bool{}
	for ci := range m.Cells {
		c := &m.Cells[ci]
		if c.Kind.Sequential() {
			if c.ControlSet == NoID || int(c.ControlSet) >= len(m.ControlSets) {
				return fmt.Errorf("cell %d (%v): bad control set %d", ci, c.Kind, c.ControlSet)
			}
		}
		if c.Kind == CellCarry {
			if c.Chain == NoID || c.ChainPos == NoID {
				return fmt.Errorf("cell %d: carry without chain", ci)
			}
			for int(c.ChainPos) >= len(chainPos[c.Chain]) {
				chainPos[c.Chain] = append(chainPos[c.Chain], false)
			}
			if chainPos[c.Chain][c.ChainPos] {
				return fmt.Errorf("chain %d: duplicate position %d", c.Chain, c.ChainPos)
			}
			chainPos[c.Chain][c.ChainPos] = true
		}
	}
	for id, seen := range chainPos {
		for p, ok := range seen {
			if !ok {
				return fmt.Errorf("chain %d: missing position %d", id, p)
			}
		}
	}
	return nil
}
