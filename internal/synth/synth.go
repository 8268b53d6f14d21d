// Package synth elaborates rtlgen Specs into flat primitive netlists and
// runs the post-synthesis optimization passes of the flow's "synthesize
// and optimize each block" step (Fig. 1 of the paper).
//
// Elaboration is the simulation-grade stand-in for vendor synthesis: it
// maps each high-level component onto the 7-series primitives (LUT, FF,
// CARRY4, LUTRAM, SRL, RAMB36) with realistic structural couplings —
// control-set fragmentation, carry-chain shapes, fanin trees and
// high-fanout control nets — because those are the features the PBlock
// estimator learns from.
package synth

import (
	"fmt"

	"macroflow/internal/netlist"
	"macroflow/internal/rng"
	"macroflow/internal/rtlgen"
)

// Elaborate converts a Spec into a primitive netlist. The result is
// deterministic for a given spec.
func Elaborate(spec rtlgen.Spec) (*netlist.Module, error) {
	m := netlist.NewModule(spec.Name)
	cells, nets := budget(spec)
	m.Cells = make([]netlist.Cell, 0, cells)
	m.Nets = make([]netlist.Net, 0, nets)
	e := &elaborator{m: m}
	for _, c := range spec.Components {
		switch comp := c.(type) {
		case rtlgen.ShiftRegs:
			e.shiftRegs(comp)
		case rtlgen.LUTMemory:
			e.lutMemory(comp)
		case rtlgen.SumOfSquares:
			e.sumOfSquares(comp)
		case rtlgen.LFSRBank:
			e.lfsrBank(comp)
		case rtlgen.RandomLogic:
			e.randomLogic(comp)
		default:
			return nil, fmt.Errorf("synth: unknown component %T", c)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("synth: elaboration of %s produced invalid netlist: %w", spec.Name, err)
	}
	return m, nil
}

// maxBudget caps what Elaborate reserves up front; a larger module still
// elaborates, growing by append.
const maxBudget = 1 << 20

// budget returns the cells and nets elaborating spec creates, so that
// Elaborate allocates each array once instead of growing it through a
// dozen doublings. It mirrors the arithmetic of the component methods
// below (TestElaborateReservesExactly holds the two together); a wrong
// count costs a reallocation, never a wrong netlist.
func budget(spec rtlgen.Spec) (cells, nets int) {
	for _, c := range spec.Components {
		switch c := c.(type) {
		case rtlgen.ShiftRegs:
			if c.Count <= 0 || c.Length <= 0 {
				continue
			}
			fanin, ncs := max(1, c.Fanin), max(1, c.ControlSets)
			stages := c.Length
			if !c.NoSRL {
				stages = (c.Length + 31) / 32
			}
			perReg := treeLUTs(fanin) + stages
			cells += c.Count * perReg
			nets += c.Count*perReg + fanin + min(fanin, 8) + ncs
		case rtlgen.LUTMemory:
			if c.Width <= 0 || c.Depth <= 0 {
				continue
			}
			n := 0
			if bits := c.Width * c.Depth; bits >= 16*1024 && !c.ForceDistributed {
				n = (bits + 32767) / 32768
				nets += n + 1
			} else {
				banks := (c.Depth + 63) / 64
				n = c.Width * banks
				if banks > 1 {
					n += c.Width * treeLUTs(banks)
				}
				nets += n + 2
			}
			cells += n
		case rtlgen.SumOfSquares:
			if c.Width <= 0 || c.Terms <= 0 {
				continue
			}
			w := c.Width
			sumW := 2*w + ceilLog2(c.Terms+1)
			pps, adders, chainLen := w*(w+1)/2, max(1, w/2-1), (2*w+3)/4
			cells += c.Terms*(pps+adders*chainLen) + (sumW+3)/4 + sumW
			nets += c.Terms*(w+pps+adders) + 1 + sumW
		case rtlgen.LFSRBank:
			if c.Count <= 0 || c.Width <= 0 {
				continue
			}
			perCells, perNets := c.Width+treeLUTs(4), c.Width+treeLUTs(4)
			if c.UseCarry {
				perCells += (c.Width + 3) / 4
				perNets++
			}
			if c.UseSRL {
				perCells++
				perNets++
			}
			cells += c.Count * perCells
			nets += c.Count*perNets + 1
		case rtlgen.RandomLogic:
			if c.LUTs <= 0 {
				continue
			}
			depth := max(1, c.Depth)
			cells += c.LUTs
			nets += c.LUTs + max(4, min((c.LUTs+depth-1)/depth, 64))
		}
	}
	return max(0, min(cells, maxBudget)), max(0, min(nets, maxBudget))
}

// Cells returns the number of cells Elaborate creates for spec, in
// closed form: what a spec costs to implement, known before anything is
// elaborated.
func Cells(spec rtlgen.Spec) int {
	cells, _ := budget(spec)
	return cells
}

// treeLUTs returns the number of LUTs (and of nets) lutTree creates over
// srcs source nets.
func treeLUTs(srcs int) int {
	total := 0
	for {
		srcs = (srcs + 5) / 6
		total += srcs
		if srcs <= 1 {
			return total
		}
	}
}

// elaborator accumulates netlist state while walking components.
type elaborator struct {
	m *netlist.Module
	// nextSignal hands out globally unique signal IDs for control sets so
	// that distinct components get distinct control sets.
	nextSignal int32
	depth      int
}

func (e *elaborator) signal() int32 {
	e.nextSignal++
	return e.nextSignal - 1
}

// inputNet creates a module input port net.
func (e *elaborator) inputNet() netlist.NetID {
	return e.m.AddNet(netlist.NoID)
}

func (e *elaborator) bumpDepth(d int) {
	if d > e.m.LogicDepth {
		e.m.LogicDepth = d
	}
}

// lutTree builds a balanced tree of 6-input LUTs reducing the given
// source nets to one output net; returns the output net of the root LUT.
func (e *elaborator) lutTree(srcs []netlist.NetID) netlist.NetID {
	depth := 0
	for len(srcs) > 1 || depth == 0 {
		var next []netlist.NetID
		for i := 0; i < len(srcs); i += 6 {
			hi := i + 6
			if hi > len(srcs) {
				hi = len(srcs)
			}
			lut := e.m.AddCell(netlist.CellLUT)
			for _, s := range srcs[i:hi] {
				e.m.AddSink(s, lut)
			}
			next = append(next, e.m.AddNet(lut))
		}
		srcs = next
		depth++
		if len(srcs) == 1 && depth > 0 {
			break
		}
	}
	e.bumpDepth(depth)
	return srcs[0]
}

// shiftRegs elaborates the FF-dominated generator: Count registers of
// Length stages, spread over ControlSets control sets, each fed by a
// Fanin-input LUT tree. Per-control-set enable nets produce the high
// fanout the paper calls out.
func (e *elaborator) shiftRegs(c rtlgen.ShiftRegs) {
	if c.Count <= 0 || c.Length <= 0 {
		return
	}
	ncs := c.ControlSets
	if ncs < 1 {
		ncs = 1
	}
	clk, rst := e.signal(), e.signal()
	csIDs := make([]int32, ncs)
	for j := range csIDs {
		csIDs[j] = e.m.AddControlSet(netlist.ControlSet{Clk: clk, Rst: rst, En: e.signal()})
	}
	// Shared data inputs: every register's fanin tree reads a rotating
	// window over this pool, creating both fanout and LUT-dedup
	// opportunities for the optimizer.
	fanin := c.Fanin
	if fanin < 1 {
		fanin = 1
	}
	pool := make([]netlist.NetID, fanin+min(fanin, 8))
	for i := range pool {
		pool[i] = e.inputNet()
	}
	enables := make([]netlist.NetID, ncs)
	for j := range enables {
		enables[j] = e.inputNet()
	}

	for r := 0; r < c.Count; r++ {
		cs := csIDs[r%ncs]
		window := make([]netlist.NetID, fanin)
		for i := 0; i < fanin; i++ {
			window[i] = pool[(r+i)%len(pool)]
		}
		d := e.lutTree(window)
		if c.NoSRL {
			for s := 0; s < c.Length; s++ {
				ff := e.m.AddSeqCell(netlist.CellFF, cs)
				e.m.AddSink(d, ff)
				e.m.AddSink(enables[r%ncs], ff)
				d = e.m.AddNet(ff)
			}
		} else {
			remaining := c.Length
			for remaining > 0 {
				srl := e.m.AddSeqCell(netlist.CellSRL, cs)
				e.m.AddSink(d, srl)
				e.m.AddSink(enables[r%ncs], srl)
				d = e.m.AddNet(srl)
				remaining -= 32
			}
		}
		e.m.MarkOutput(d)
	}
}

// lutMemory elaborates the register-free memory generator. Small
// memories become LUTRAM banks with read multiplexers; memories at or
// above the BRAM inference threshold become RAMB36 cells.
func (e *elaborator) lutMemory(c rtlgen.LUTMemory) {
	if c.Width <= 0 || c.Depth <= 0 {
		return
	}
	bits := c.Width * c.Depth
	addr := e.inputNet()
	if bits >= 16*1024 && !c.ForceDistributed {
		// RAMB36: 32Kbit data capacity each in this model.
		n := (bits + 32767) / 32768
		for i := 0; i < n; i++ {
			b := e.m.AddCell(netlist.CellBRAM)
			e.m.AddSink(addr, b)
			e.m.MarkOutput(e.m.AddNet(b))
		}
		e.bumpDepth(1)
		return
	}
	cs := e.m.AddControlSet(netlist.ControlSet{Clk: e.signal(), Rst: netlist.NoID, En: e.signal()})
	banks := (c.Depth + 63) / 64
	we := e.inputNet()
	for w := 0; w < c.Width; w++ {
		bankOuts := make([]netlist.NetID, banks)
		for b := 0; b < banks; b++ {
			ram := e.m.AddSeqCell(netlist.CellLUTRAM, cs)
			e.m.AddSink(addr, ram) // address fans out to every LUTRAM
			e.m.AddSink(we, ram)
			bankOuts[b] = e.m.AddNet(ram)
		}
		if banks > 1 {
			e.m.MarkOutput(e.lutTree(bankOuts))
		} else {
			e.m.MarkOutput(bankOuts[0])
		}
	}
	e.bumpDepth(2)
}

// sumOfSquares elaborates the carry generator: Terms squared operands of
// Width bits reduced through LUT partial products and CARRY4 adder
// chains, plus one long accumulator chain with an output register.
func (e *elaborator) sumOfSquares(c rtlgen.SumOfSquares) {
	if c.Width <= 0 || c.Terms <= 0 {
		return
	}
	w := c.Width
	sumW := 2*w + ceilLog2(c.Terms+1)
	var termNets []netlist.NetID
	for t := 0; t < c.Terms; t++ {
		// Operand input bits.
		op := make([]netlist.NetID, w)
		for i := range op {
			op[i] = e.inputNet()
		}
		// Partial products: one LUT per (i, j<=i) bit pair.
		var pps []netlist.NetID
		for i := 0; i < w; i++ {
			for j := 0; j <= i; j++ {
				lut := e.m.AddCell(netlist.CellLUT)
				e.m.AddSink(op[i], lut)
				if j != i {
					e.m.AddSink(op[j], lut)
				}
				pps = append(pps, e.m.AddNet(lut))
			}
		}
		// Reduction adders: rows of partial products collapse pairwise
		// through CARRY4 chains of ceil(2w/4) segments.
		adders := max(1, w/2-1)
		chainLen := (2*w + 3) / 4
		red := pps
		for a := 0; a < adders; a++ {
			chain := e.m.AddCarryChain(chainLen)
			// Each chain consumes a window of the reduction nets.
			for k := 0; k < 2*chainLen && len(red) > 0; k++ {
				e.m.AddSink(red[k%len(red)], chain[k%chainLen])
			}
			out := e.m.AddNet(chain[chainLen-1])
			red = append(red[min(len(red), 4):], out)
		}
		termNets = append(termNets, red[len(red)-1])
	}
	// Accumulator chain and output register.
	accLen := (sumW + 3) / 4
	acc := e.m.AddCarryChain(accLen)
	for i, tn := range termNets {
		e.m.AddSink(tn, acc[i%accLen])
	}
	accOut := e.m.AddNet(acc[accLen-1])
	cs := e.m.AddControlSet(netlist.ControlSet{Clk: e.signal(), Rst: e.signal(), En: netlist.NoID})
	for b := 0; b < sumW; b++ {
		ff := e.m.AddSeqCell(netlist.CellFF, cs)
		e.m.AddSink(accOut, ff)
		e.m.MarkOutput(e.m.AddNet(ff))
	}
	// Ripple depth dominates: one level per CARRY4 segment of the
	// longest chain, plus the partial-product level.
	e.bumpDepth(1 + accLen)
}

// lfsrBank elaborates the mixed generator: LFSRs (FF + XOR LUTs), with
// optional carry-chain counters and SRL delay lines.
func (e *elaborator) lfsrBank(c rtlgen.LFSRBank) {
	if c.Count <= 0 || c.Width <= 0 {
		return
	}
	clk := e.signal()
	csA := e.m.AddControlSet(netlist.ControlSet{Clk: clk, Rst: e.signal(), En: e.signal()})
	csB := e.m.AddControlSet(netlist.ControlSet{Clk: clk, Rst: e.signal(), En: e.signal()})
	en := e.inputNet()
	for l := 0; l < c.Count; l++ {
		cs := csA
		if l%2 == 1 {
			cs = csB
		}
		// Register chain with feedback.
		var stageNets []netlist.NetID
		var firstFF netlist.CellID
		prev := netlist.NetID(netlist.NoID)
		for s := 0; s < c.Width; s++ {
			ff := e.m.AddSeqCell(netlist.CellFF, cs)
			if s == 0 {
				firstFF = ff
			}
			if prev != netlist.NetID(netlist.NoID) {
				e.m.AddSink(prev, ff)
			}
			e.m.AddSink(en, ff)
			prev = e.m.AddNet(ff)
			stageNets = append(stageNets, prev)
		}
		// Feedback XOR over 4 taps drives the first stage.
		taps := []netlist.NetID{
			stageNets[c.Width-1],
			stageNets[c.Width/2],
			stageNets[c.Width/3],
			stageNets[0],
		}
		fb := e.lutTree(taps)
		e.m.AddSink(fb, firstFF)
		e.m.MarkOutput(stageNets[len(stageNets)-1])
		if c.UseCarry {
			chain := e.m.AddCarryChain((c.Width + 3) / 4)
			e.m.AddSink(stageNets[0], chain[0])
			e.m.MarkOutput(e.m.AddNet(chain[len(chain)-1]))
		}
		if c.UseSRL {
			srl := e.m.AddSeqCell(netlist.CellSRL, cs)
			e.m.AddSink(stageNets[c.Width-1], srl)
			e.m.MarkOutput(e.m.AddNet(srl))
		}
	}
	e.bumpDepth(2)
}

// randomLogic elaborates an unstructured LUT cloud in Depth levels wired
// pseudo-randomly with the component seed. Wiring is local — each LUT
// reads nets near the structurally corresponding position of the
// previous level, with a small fraction of long wires — and cells are
// emitted in interleaved chunks across levels so that netlist order
// (which downstream packing follows) matches the logic's natural
// dataflow locality, as it would after real placement.
func (e *elaborator) randomLogic(c rtlgen.RandomLogic) {
	if c.LUTs <= 0 {
		return
	}
	wire := rng.New(c.Seed)
	depth := max(1, c.Depth)
	fanin := c.Fanin
	if fanin < 1 {
		fanin = 1
	}
	if fanin > 6 {
		fanin = 6
	}
	perLevel := (c.LUTs + depth - 1) / depth
	// Primary inputs.
	inputs := make([]netlist.NetID, max(4, min(perLevel, 64)))
	for i := range inputs {
		inputs[i] = e.inputNet()
	}
	// Level sizes.
	sizes := make([]int, depth)
	remaining := c.LUTs
	for l := 0; l < depth; l++ {
		sizes[l] = min(perLevel, remaining)
		remaining -= sizes[l]
	}
	nets := make([][]netlist.NetID, depth) // created nets per level
	created := func(l int) []netlist.NetID {
		if l < 0 {
			return inputs
		}
		return nets[l]
	}
	const chunk = 16
	for base := 0; base < perLevel; base += chunk {
		for l := 0; l < depth; l++ {
			hi := min(base+chunk, sizes[l])
			for i := len(nets[l]); i < hi; i++ {
				lut := e.m.AddCell(netlist.CellLUT)
				prev := created(l - 1)
				// Structural correspondence: position i of this level
				// maps to the proportional position of the previous
				// level (or of the input pool for level 0), keeping
				// wiring local in both cases.
				span := len(inputs)
				if l > 0 {
					span = sizes[l-1]
				}
				center := i * span / max(1, sizes[l])
				for k := 0; k < fanin; k++ {
					var src int
					if wire.Intn(20) == 0 {
						src = wire.Intn(len(prev)) // occasional global wire
					} else {
						// Reflect at the created range's edges: wrapping
						// would synthesize module-spanning wires and
						// clamping would create artificial fanout hubs.
						src = center + wire.Intn(17) - 8
						if src < 0 {
							src = -src
						}
						if src >= len(prev) {
							src = 2*len(prev) - 2 - src
						}
						if src < 0 || src >= len(prev) {
							src = center % len(prev)
						}
					}
					e.m.AddSink(prev[src], lut)
				}
				nets[l] = append(nets[l], e.m.AddNet(lut))
			}
		}
	}
	for _, o := range nets[depth-1] {
		e.m.MarkOutput(o)
	}
	e.bumpDepth(depth)
}

func ceilLog2(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}
