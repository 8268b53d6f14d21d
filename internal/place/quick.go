// Package place implements the two placement steps of the flow in Fig. 1
// of the paper: the quick placement that produces the shape report and
// slice estimate a PBlock is sized from, and the detailed placement that
// packs a module's primitives into the slices of a concrete PBlock.
//
// Detailed placement is the ground-truth oracle of the whole
// reproduction: a correction factor is "minimal" exactly when this placer
// (plus the congestion router) first succeeds, so the §V effects —
// control-set fragmentation, carry-chain shapes, M-slice demand, fanout
// and density — are modeled here as hard packing constraints.
package place

import (
	"macroflow/internal/fabric"
	"macroflow/internal/netlist"
)

// ShapeReport is the outcome of the quick placement: the optimistic slice
// estimate and the geometric shapes (carry chains) that constrain the
// PBlock, mirroring the "shape report" RapidWright generates.
type ShapeReport struct {
	// EstSlices is the optimistic slice count assuming perfect packing
	// (no control-set or congestion losses). The PBlock generator
	// multiplies this by the correction factor.
	EstSlices int
	// EstSlicesM is the number of M-type slices required (LUTRAM/SRL).
	EstSlicesM int
	// EstBRAM and EstDSP are the block resource demands.
	EstBRAM int
	EstDSP  int
	// CarryShapes lists the height in slices of every carry chain,
	// longest first. MaxShapeHeight is the tallest.
	CarryShapes    []int
	MaxShapeHeight int
	// Stats carries the module's raw structural statistics.
	Stats netlist.Stats
}

// QuickPlace runs the fast pre-implementation analysis of a module and
// returns its shape report. It never fails: it is an estimate, not a
// legal placement.
func QuickPlace(m *netlist.Module) ShapeReport {
	s := m.ComputeStats()
	r := ShapeReport{Stats: s}

	// Optimistic packing: every slice offers 4 LUT sites shared by
	// logic LUTs, LUTRAMs and SRLs, 8 FF sites, and one CARRY4 site.
	lutSlices := ceilDiv(s.LUTs+s.LUTRAMs+s.SRLs, fabric.LUTsPerSlice)
	ffSlices := ceilDiv(s.FFs, fabric.FFsPerSlice)
	carrySlices := s.Carrys
	r.EstSlices = max(lutSlices, max(ffSlices, carrySlices))
	if r.EstSlices == 0 && s.TotalCells() > 0 {
		r.EstSlices = 1
	}
	// M-slice demand is per control set: LUTRAM/SRL cells of different
	// control sets cannot share a CLB, hence not an M slice either.
	memGroups := map[int32]int{}
	for i := range m.Cells {
		if m.Cells[i].Kind.NeedsMSlice() {
			memGroups[m.Cells[i].ControlSet]++
		}
	}
	for _, n := range memGroups {
		r.EstSlicesM += ceilDiv(n, fabric.LUTRAMPerMSlice)
	}
	r.EstBRAM = s.BRAMs
	r.EstDSP = s.DSPs

	for _, l := range m.CarryChains() {
		if l > 0 {
			r.CarryShapes = append(r.CarryShapes, l)
			if l > r.MaxShapeHeight {
				r.MaxShapeHeight = l
			}
		}
	}
	sortDesc(r.CarryShapes)
	return r
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

func sortDesc(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] > v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
