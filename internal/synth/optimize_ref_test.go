package synth_test

import (
	"sort"

	"macroflow/internal/netlist"
	"macroflow/internal/synth"
)

// The optimizer as it was before its tables went flat (map-keyed dedup,
// per-cell input slices, rebuild-by-append compaction), kept only as the
// reference optimize_diff_test.go compares Optimize against.

// refOptimize runs the reference passes in Optimize's order.
func refOptimize(m *netlist.Module) (synth.OptResult, error) {
	var res synth.OptResult
	res.DedupedLUTs = refDedupLUTs(m)
	res.DeadCells = refEliminateDead(m)
	return res, m.Validate()
}

// refCellInputs builds, for every cell, the list of nets it sinks.
func refCellInputs(m *netlist.Module) [][]netlist.NetID {
	in := make([][]netlist.NetID, len(m.Cells))
	for ni := range m.Nets {
		for _, s := range m.Nets[ni].Sinks {
			in[s] = append(in[s], netlist.NetID(ni))
		}
	}
	return in
}

// refOutputNets returns, for every cell, the net it drives (NoID if none).
func refOutputNets(m *netlist.Module) []netlist.NetID {
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

// refDedupLUTs merges logic LUTs whose input net sets are identical,
// rewiring the duplicate's sinks onto the keeper's output net. Returns
// the number of LUTs removed.
func refDedupLUTs(m *netlist.Module) int {
	inputs := refCellInputs(m)
	outs := refOutputNets(m)
	type key string
	keeper := make(map[key]netlist.CellID)
	// replaceNet[old] = new for nets whose driver was deduped away.
	replaceNet := make(map[netlist.NetID]netlist.NetID)
	dead := make([]bool, len(m.Cells))
	removed := 0

	for ci := range m.Cells {
		c := &m.Cells[ci]
		if c.Kind != netlist.CellLUT || len(inputs[ci]) == 0 || outs[ci] == netlist.NoID {
			continue
		}
		sorted := refSortedCopy(inputs[ci])
		k := make([]byte, 0, len(sorted)*4)
		for _, n := range sorted {
			k = append(k, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		}
		if keep, ok := keeper[key(k)]; ok {
			// Merge ci into keep: ci's output net is replaced by keep's.
			replaceNet[outs[ci]] = outs[keep]
			dead[ci] = true
			removed++
		} else {
			keeper[key(k)] = netlist.CellID(ci)
		}
	}
	if removed == 0 {
		return 0
	}

	// Resolve replacement chains (a dup of a dup).
	resolve := func(n netlist.NetID) netlist.NetID {
		for {
			r, ok := replaceNet[n]
			if !ok {
				return n
			}
			n = r
		}
	}

	// Move sinks of replaced nets onto their replacement, drop replaced
	// nets and dead cells, then refCompact. Replacements are applied in net
	// order so the keeper's sink list — and everything downstream of it,
	// like the module's content hash — is independent of map iteration.
	replaced := make([]netlist.NetID, 0, len(replaceNet))
	for old := range replaceNet {
		replaced = append(replaced, old)
	}
	sort.Slice(replaced, func(i, j int) bool { return replaced[i] < replaced[j] })
	for _, old := range replaced {
		target := resolve(old)
		m.Nets[target].Sinks = append(m.Nets[target].Sinks, m.Nets[old].Sinks...)
		m.Nets[old].Sinks = nil
		m.Nets[old].Driver = netlist.NoID
	}
	deadNet := make([]bool, len(m.Nets))
	for old := range replaceNet {
		deadNet[old] = true
	}
	for i, o := range m.Outputs {
		m.Outputs[i] = resolve(o)
	}
	refCompact(m, dead, deadNet)
	return removed
}

// refEliminateDead removes cells unreachable from the module outputs.
// Sequential cells and whole carry chains are kept if any of their
// members is live; BRAM/DSP cells marked as outputs stay live through
// their output nets.
func refEliminateDead(m *netlist.Module) int {
	if len(m.Outputs) == 0 {
		return 0 // nothing is observable; keep everything rather than erase the module
	}
	inputs := refCellInputs(m)
	live := make([]bool, len(m.Cells))
	var stack []netlist.CellID
	markCell := func(c netlist.CellID) {
		if c != netlist.NoID && !live[c] {
			live[c] = true
			stack = append(stack, c)
		}
	}
	for _, o := range m.Outputs {
		markCell(m.Nets[o].Driver)
	}
	// Chain membership for atomic liveness.
	chainMembers := map[int32][]netlist.CellID{}
	for ci := range m.Cells {
		if m.Cells[ci].Kind == netlist.CellCarry {
			ch := m.Cells[ci].Chain
			chainMembers[ch] = append(chainMembers[ch], netlist.CellID(ci))
		}
	}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if m.Cells[c].Kind == netlist.CellCarry {
			for _, member := range chainMembers[m.Cells[c].Chain] {
				markCell(member)
			}
		}
		for _, n := range inputs[c] {
			markCell(m.Nets[n].Driver)
		}
	}
	dead := make([]bool, len(m.Cells))
	removed := 0
	for ci := range m.Cells {
		if !live[ci] {
			dead[ci] = true
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
	refCompact(m, dead, deadNet)
	return removed
}

// refCompact rebuilds the module without dead cells/nets, remapping all
// references and renumbering carry chains densely.
func refCompact(m *netlist.Module, deadCell []bool, deadNet []bool) {
	cellMap := make([]netlist.CellID, len(m.Cells))
	newCells := m.Cells[:0:0]
	for ci := range m.Cells {
		if deadCell[ci] {
			cellMap[ci] = netlist.NoID
			continue
		}
		cellMap[ci] = netlist.CellID(len(newCells))
		newCells = append(newCells, m.Cells[ci])
	}
	netMap := make([]netlist.NetID, len(m.Nets))
	newNets := m.Nets[:0:0]
	for ni := range m.Nets {
		if deadNet[ni] {
			netMap[ni] = netlist.NoID
			continue
		}
		netMap[ni] = netlist.NetID(len(newNets))
		newNets = append(newNets, m.Nets[ni])
	}
	// Remap net endpoints, dropping sinks that died.
	for i := range newNets {
		n := &newNets[i]
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
	// Renumber carry chains densely.
	chainMap := map[int32]int32{}
	for i := range newCells {
		c := &newCells[i]
		if c.Kind != netlist.CellCarry {
			continue
		}
		nc, ok := chainMap[c.Chain]
		if !ok {
			nc = int32(len(chainMap))
			chainMap[c.Chain] = nc
		}
		c.Chain = nc
	}
	m.Cells = newCells
	m.Nets = newNets
	m.Outputs = outs
}

// refSortedCopy returns a sorted copy of ids (helper for dedup keys).
func refSortedCopy(ids []netlist.NetID) []netlist.NetID {
	out := make([]netlist.NetID, len(ids))
	copy(out, ids)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
