package synth

import (
	"fmt"

	"macroflow/internal/netlist"
)

// OptResult reports what the optimization passes removed.
type OptResult struct {
	DedupedLUTs int // LUTs merged by common-subexpression dedup
	DeadCells   int // cells removed by dead-code elimination
}

// Optimize runs the post-synthesis optimization passes in place:
//
//  1. LUT deduplication — LUTs reading exactly the same input nets are
//     merged (the generators replicate fanin trees across instances, so
//     real sharing exists to find).
//  2. Dead-code elimination — cells not transitively reachable from any
//     module output are removed. Carry chains are treated atomically so
//     chain shapes stay contiguous.
//
// It returns statistics about the removals.
//
// The passes work on flat, ID-indexed tables (see cellInputs), a fixed
// number of them per module whatever its size: a warm compile spends
// its time here, not in the implementation it reads from the cache.
func Optimize(m *netlist.Module) (OptResult, error) {
	var res OptResult
	var in cellInputs
	in.build(m)
	res.DedupedLUTs = dedupLUTs(m, &in)
	if res.DedupedLUTs > 0 {
		in.build(m) // the merge renumbered cells and nets
	}
	res.DeadCells = eliminateDead(m, &in)
	if err := m.Validate(); err != nil {
		return res, fmt.Errorf("synth: optimize broke netlist %s: %w", m.Name, err)
	}
	return res, nil
}

// cellInputs lists, for every cell, the nets it sinks, in compressed
// sparse rows: cell c reads nets[off[c]:off[c+1]]. Rows are filled in
// net order, so every row is net-ascending (a net sunk twice by one
// cell appears twice).
type cellInputs struct {
	off  []int32
	nets []netlist.NetID
}

// build indexes m in a counting pass and a filling pass, reusing the
// arrays of an earlier build.
func (in *cellInputs) build(m *netlist.Module) {
	nc := len(m.Cells)
	if cap(in.off) < nc+1 {
		in.off = make([]int32, nc+1)
	}
	off := in.off[:nc+1]
	for i := range off {
		off[i] = 0
	}
	total := 0
	for ni := range m.Nets {
		for _, s := range m.Nets[ni].Sinks {
			off[s+1]++
		}
		total += len(m.Nets[ni].Sinks)
	}
	for c := 0; c < nc; c++ {
		off[c+1] += off[c]
	}
	if cap(in.nets) < total {
		in.nets = make([]netlist.NetID, total)
	}
	nets := in.nets[:total]
	// Fill with off[c] as cell c's cursor; afterwards off[c] is the end
	// of row c, which is the start of row c+1.
	for ni := range m.Nets {
		for _, s := range m.Nets[ni].Sinks {
			nets[off[s]] = netlist.NetID(ni)
			off[s]++
		}
	}
	copy(off[1:], off[:nc])
	off[0] = 0
	in.off, in.nets = off, nets
}

// of returns the nets cell c sinks, ascending.
func (in *cellInputs) of(c netlist.CellID) []netlist.NetID {
	return in.nets[in.off[c]:in.off[c+1]]
}

// outputNet returns, for every cell, the net it drives (NoID if none).
func outputNets(m *netlist.Module) []netlist.NetID {
	out := make([]netlist.NetID, len(m.Cells))
	for i := range out {
		out[i] = netlist.NoID
	}
	for ni := range m.Nets {
		if d := m.Nets[ni].Driver; d != netlist.NoID {
			out[d] = netlist.NetID(ni)
		}
	}
	return out
}

// lutSet finds the first LUT with a given input row. It is an open-
// addressing table over cell IDs whose keys are the rows themselves, so
// a row of any length (ReadText modules are not held to six inputs) is
// compared exactly and nothing is copied or boxed per LUT.
type lutSet struct {
	in    *cellInputs
	slots []netlist.CellID // cell+1; 0 marks an empty slot
	shift uint
}

func newLUTSet(in *cellInputs, luts int) lutSet {
	bits := uint(4)
	for 1<<bits < 2*luts {
		bits++
	}
	return lutSet{in: in, slots: make([]netlist.CellID, 1<<bits), shift: 64 - bits}
}

// keeper returns the earlier-inserted cell reading exactly c's inputs,
// or inserts c and returns NoID.
func (s *lutSet) keeper(c netlist.CellID) netlist.CellID {
	row := s.in.of(c)
	h := uint64(len(row))
	for _, n := range row {
		h = (h ^ uint64(uint32(n))) * 0x9e3779b97f4a7c15
	}
	mask := len(s.slots) - 1
	for i := int(h >> s.shift); ; i = (i + 1) & mask {
		k := s.slots[i] - 1
		if k == netlist.NoID {
			s.slots[i] = c + 1
			return netlist.NoID
		}
		if sameRow(s.in.of(k), row) {
			return k
		}
	}
}

func sameRow(a, b []netlist.NetID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dedupLUTs merges logic LUTs whose input net sets are identical,
// rewiring the duplicate's sinks onto the keeper's output net. Returns
// the number of LUTs removed. in must index m; a nonzero return leaves
// it stale.
func dedupLUTs(m *netlist.Module, in *cellInputs) int {
	outs := outputNets(m)
	luts := 0
	for ci := range m.Cells {
		if m.Cells[ci].Kind == netlist.CellLUT {
			luts++
		}
	}
	seen := newLUTSet(in, luts)
	// replaceNet[old] = new for nets whose driver was deduped away;
	// both tables are allocated at the first duplicate.
	var replaceNet []netlist.NetID
	var dead []bool
	removed := 0

	for ci := range m.Cells {
		c := netlist.CellID(ci)
		if m.Cells[ci].Kind != netlist.CellLUT || len(in.of(c)) == 0 || outs[ci] == netlist.NoID {
			continue
		}
		keep := seen.keeper(c)
		if keep == netlist.NoID {
			continue
		}
		if removed == 0 {
			replaceNet = make([]netlist.NetID, len(m.Nets))
			for i := range replaceNet {
				replaceNet[i] = netlist.NoID
			}
			dead = make([]bool, len(m.Cells))
		}
		// Merge ci into keep: ci's output net is replaced by keep's.
		replaceNet[outs[ci]] = outs[keep]
		dead[ci] = true
		removed++
	}
	if removed == 0 {
		return 0
	}

	// Resolve replacement chains (a dup of a dup).
	resolve := func(n netlist.NetID) netlist.NetID {
		for replaceNet[n] != netlist.NoID {
			n = replaceNet[n]
		}
		return n
	}

	// Move sinks of replaced nets onto their replacement, drop replaced
	// nets and dead cells, then compact. Replacements are applied in net
	// order so the keeper's sink list — and everything downstream of it,
	// like the module's content hash — is the same in every process.
	// The grown lists are sized first and carved from one block.
	extra := make([]int32, len(m.Nets)) // sinks each surviving net gains
	block := 0
	for old := range replaceNet {
		n := len(m.Nets[old].Sinks)
		if replaceNet[old] == netlist.NoID || n == 0 {
			continue
		}
		target := resolve(netlist.NetID(old))
		if extra[target] == 0 {
			block += len(m.Nets[target].Sinks)
		}
		extra[target] += int32(n)
		block += n
	}
	arena := make([]netlist.CellID, block)
	deadNet := make([]bool, len(m.Nets))
	for old := range replaceNet {
		if replaceNet[old] == netlist.NoID {
			continue
		}
		target := resolve(netlist.NetID(old))
		t := &m.Nets[target]
		if extra[target] > 0 { // first merge into this net: move it to its grown list
			n := len(t.Sinks) + int(extra[target])
			grown := arena[:len(t.Sinks):n]
			arena = arena[n:]
			copy(grown, t.Sinks)
			t.Sinks = grown
			extra[target] = 0
		}
		t.Sinks = append(t.Sinks, m.Nets[old].Sinks...)
		m.Nets[old].Sinks = nil
		m.Nets[old].Driver = netlist.NoID
		deadNet[old] = true
	}
	for i, o := range m.Outputs {
		m.Outputs[i] = resolve(o)
	}
	compact(m, dead, deadNet)
	return removed
}

// eliminateDead removes cells unreachable from the module outputs.
// Sequential cells and whole carry chains are kept if any of their
// members is live; BRAM/DSP cells marked as outputs stay live through
// their output nets. in must index m.
func eliminateDead(m *netlist.Module, in *cellInputs) int {
	if len(m.Outputs) == 0 {
		return 0 // nothing is observable; keep everything rather than erase the module
	}
	live := make([]bool, len(m.Cells))
	stack := make([]netlist.CellID, 0, len(m.Cells)) // a cell is pushed once
	markCell := func(c netlist.CellID) {
		if c != netlist.NoID && !live[c] {
			live[c] = true
			stack = append(stack, c)
		}
	}
	for _, o := range m.Outputs {
		markCell(m.Nets[o].Driver)
	}
	// Chain membership for atomic liveness, in rows indexed by chain ID.
	chainOff, chainCells := chainMembers(m)
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if chained(&m.Cells[c]) {
			ch := m.Cells[c].Chain
			for _, member := range chainCells[chainOff[ch]:chainOff[ch+1]] {
				markCell(member)
			}
		}
		for _, n := range in.of(c) {
			markCell(m.Nets[n].Driver)
		}
	}
	// live becomes the dead mask in place.
	dead := live
	removed := 0
	for ci := range dead {
		dead[ci] = !dead[ci]
		if dead[ci] {
			removed++
		}
	}
	if removed == 0 {
		return 0
	}
	// A net is dead if its driver is a dead cell.
	deadNet := make([]bool, len(m.Nets))
	for ni := range m.Nets {
		d := m.Nets[ni].Driver
		if d != netlist.NoID && dead[d] {
			deadNet[ni] = true
		}
	}
	compact(m, dead, deadNet)
	return removed
}

// chained reports whether c is a carry cell with a chain ID to index
// by (a carry cell without one fails Validate, after the passes).
func chained(c *netlist.Cell) bool { return c.Kind == netlist.CellCarry && c.Chain >= 0 }

// chainMembers lists the carry cells of every chain: chain ch holds
// cells[off[ch]:off[ch+1]].
func chainMembers(m *netlist.Module) (off []int32, cells []netlist.CellID) {
	chains, carries := 0, 0
	for ci := range m.Cells {
		if c := &m.Cells[ci]; chained(c) {
			carries++
			if int(c.Chain) >= chains {
				chains = int(c.Chain) + 1
			}
		}
	}
	if carries == 0 {
		return nil, nil
	}
	off = make([]int32, chains+1)
	for ci := range m.Cells {
		if c := &m.Cells[ci]; chained(c) {
			off[c.Chain+1]++
		}
	}
	for ch := 0; ch < chains; ch++ {
		off[ch+1] += off[ch]
	}
	cells = make([]netlist.CellID, carries)
	for ci := range m.Cells {
		if c := &m.Cells[ci]; chained(c) {
			cells[off[c.Chain]] = netlist.CellID(ci)
			off[c.Chain]++
		}
	}
	copy(off[1:], off[:chains])
	off[0] = 0
	return off, cells
}

// compact drops dead cells/nets from the module in place, remapping all
// references and renumbering carry chains densely.
func compact(m *netlist.Module, deadCell []bool, deadNet []bool) {
	cellMap := make([]netlist.CellID, len(m.Cells))
	cells := m.Cells[:0]
	chains := 0
	for ci := range m.Cells {
		if deadCell[ci] {
			cellMap[ci] = netlist.NoID
			continue
		}
		cellMap[ci] = netlist.CellID(len(cells))
		if c := &m.Cells[ci]; chained(c) && int(c.Chain) >= chains {
			chains = int(c.Chain) + 1
		}
		cells = append(cells, m.Cells[ci])
	}
	netMap := make([]netlist.NetID, len(m.Nets))
	nets := m.Nets[:0]
	for ni := range m.Nets {
		if deadNet[ni] {
			netMap[ni] = netlist.NoID
			continue
		}
		netMap[ni] = netlist.NetID(len(nets))
		nets = append(nets, m.Nets[ni])
	}
	// The dropped tail must not keep its sink lists reachable.
	clear(m.Nets[len(nets):])
	// Remap net endpoints, dropping sinks that died.
	for i := range nets {
		n := &nets[i]
		if n.Driver != netlist.NoID {
			n.Driver = cellMap[n.Driver]
		}
		kept := n.Sinks[:0]
		for _, s := range n.Sinks {
			if ns := cellMap[s]; ns != netlist.NoID {
				kept = append(kept, ns)
			}
		}
		n.Sinks = kept
	}
	// Remap outputs, dropping dead ones.
	outs := m.Outputs[:0]
	for _, o := range m.Outputs {
		if no := netMap[o]; no != netlist.NoID {
			outs = append(outs, no)
		}
	}
	// Renumber carry chains densely, in order of first appearance.
	chainMap := make([]int32, chains)
	for i := range chainMap {
		chainMap[i] = netlist.NoID
	}
	next := int32(0)
	for i := range cells {
		c := &cells[i]
		if !chained(c) {
			continue
		}
		if chainMap[c.Chain] == netlist.NoID {
			chainMap[c.Chain] = next
			next++
		}
		c.Chain = chainMap[c.Chain]
	}
	m.Cells = cells
	m.Nets = nets
	m.Outputs = outs
}
