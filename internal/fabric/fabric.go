// Package fabric models the columnar geometry of AMD 7-series FPGAs at the
// granularity the paper's flow depends on: columns of configurable logic
// blocks (CLBs) of L or M type, block-RAM and DSP columns, clock
// distribution columns, slices (4 LUTs, 8 flip-flops, one CARRY4 segment
// each), and clock regions.
//
// The model is deliberately simulation-grade, not bitstream-grade: it
// captures exactly the properties that drive PBlock sizing and block
// relocation in a RapidWright-style flow — which columns exist where, how
// many slices of which type a rectangle contains, and which origins a
// rectangular footprint may legally relocate to.
package fabric

import "fmt"

// ColumnKind identifies the resource type of one tile column.
type ColumnKind uint8

const (
	// ColCLBL is a column of CLBs whose two slices are both L-type.
	ColCLBL ColumnKind = iota
	// ColCLBM is a column of CLBs with one M-type and one L-type slice.
	// M-type slices additionally support LUTRAM and SRL primitives.
	ColCLBM
	// ColBRAM is a column of RAMB36 block RAMs (one per BRAMRows rows).
	ColBRAM
	// ColDSP is a column of DSP48 tiles (DSPPerTile per DSPRows rows).
	ColDSP
	// ColClock is a vertical clock distribution column. It contains no
	// user resources and PBlocks that straddle it pay a timing penalty.
	ColClock
	// ColIO is an I/O column at the device edge; no fabric resources.
	ColIO

	numColumnKinds
)

// String returns a short mnemonic for the column kind.
func (k ColumnKind) String() string {
	switch k {
	case ColCLBL:
		return "L"
	case ColCLBM:
		return "M"
	case ColBRAM:
		return "B"
	case ColDSP:
		return "D"
	case ColClock:
		return "K"
	case ColIO:
		return "I"
	}
	return "?"
}

// Per-slice and per-column capacity constants of the 7-series fabric.
const (
	// LUTsPerSlice is the number of 6-input LUTs in one slice.
	LUTsPerSlice = 4
	// FFsPerSlice is the number of flip-flops in one slice.
	FFsPerSlice = 8
	// SlicesPerCLB is the number of slices in one CLB tile.
	SlicesPerCLB = 2
	// FFsPerCLB is the number of flip-flops in one CLB.
	FFsPerCLB = FFsPerSlice * SlicesPerCLB
	// LUTRAMPerMSlice is how many LUTRAM/SRL primitives fit in one
	// M-type slice (its four LUTs used as memory).
	LUTRAMPerMSlice = 4
	// BRAMRows is the CLB-row pitch of one RAMB36 in a BRAM column.
	BRAMRows = 5
	// DSPRows is the CLB-row pitch of one DSP tile.
	DSPRows = 5
	// DSPPerTile is the number of DSP48 sites per DSP tile.
	DSPPerTile = 2
)

// Device is an FPGA modeled as a grid of Rows CLB rows by len(Columns)
// tile columns. Row 0 is the bottom of the die.
type Device struct {
	// Name is the part name, e.g. "xc7z020".
	Name string
	// Columns lists the kind of every tile column, left to right.
	Columns []ColumnKind
	// Rows is the device height in CLB rows.
	Rows int
	// ClockRegionRows is the height of one clock region in CLB rows.
	ClockRegionRows int
}

// NumCols returns the number of tile columns.
func (d *Device) NumCols() int { return len(d.Columns) }

// ClockRegions returns the number of vertical clock regions.
func (d *Device) ClockRegions() int {
	if d.ClockRegionRows <= 0 {
		return 1
	}
	return (d.Rows + d.ClockRegionRows - 1) / d.ClockRegionRows
}

// Region returns the clock region index of a row.
//
// Boundary contract: a row exactly on a clock-region boundary (row ==
// k·ClockRegionRows) belongs to region k — the region ABOVE the
// boundary, never the one below. Regions are therefore the half-open
// row bands [k·ClockRegionRows, (k+1)·ClockRegionRows), and every row
// belongs to exactly one region. Shard carving (Shards) depends on this:
// cutting a device at region boundaries partitions the rows with no
// overlap and no gap. Devices with ClockRegionRows <= 0 are a single
// region 0.
func (d *Device) Region(row int) int {
	if d.ClockRegionRows <= 0 {
		return 0
	}
	return row / d.ClockRegionRows
}

// InBounds reports whether tile coordinate (x, y) lies on the device.
func (d *Device) InBounds(x, y int) bool {
	return x >= 0 && x < len(d.Columns) && y >= 0 && y < d.Rows
}

// KindAt returns the column kind at column x.
func (d *Device) KindAt(x int) ColumnKind { return d.Columns[x] }

// IsCLBColumn reports whether column x holds CLBs.
func (d *Device) IsCLBColumn(x int) bool {
	k := d.Columns[x]
	return k == ColCLBL || k == ColCLBM
}

// ResourceCount aggregates fabric resources of a device or rectangle.
type ResourceCount struct {
	SlicesL int // L-type slices
	SlicesM int // M-type slices
	BRAM    int // RAMB36 sites
	DSP     int // DSP48 sites
}

// Slices returns the total slice count (L + M).
func (r ResourceCount) Slices() int { return r.SlicesL + r.SlicesM }

// LUTs returns the total LUT capacity.
func (r ResourceCount) LUTs() int { return r.Slices() * LUTsPerSlice }

// FFs returns the total flip-flop capacity.
func (r ResourceCount) FFs() int { return r.Slices() * FFsPerSlice }

// Add returns the element-wise sum of two resource counts.
func (r ResourceCount) Add(o ResourceCount) ResourceCount {
	return ResourceCount{
		SlicesL: r.SlicesL + o.SlicesL,
		SlicesM: r.SlicesM + o.SlicesM,
		BRAM:    r.BRAM + o.BRAM,
		DSP:     r.DSP + o.DSP,
	}
}

// Covers reports whether r provides at least the resources of need,
// taking into account that L-type demand may spill into M-type slices
// (an M slice can do everything an L slice can).
func (r ResourceCount) Covers(need ResourceCount) bool {
	if r.SlicesM < need.SlicesM {
		return false
	}
	spareM := r.SlicesM - need.SlicesM
	if r.SlicesL+spareM < need.SlicesL {
		return false
	}
	return r.BRAM >= need.BRAM && r.DSP >= need.DSP
}

// ColumnResources returns the resources of the single column x, which
// must be on the device, over rows [y0, y1] (inclusive), in closed form:
// a column is uniform in y up to the BRAM/DSP pitch. BRAM/DSP sites are
// counted only when their full row pitch lies inside the range,
// mirroring the vendor rule that a PBlock must contain whole RAMB36/DSP
// tiles to use them.
func (d *Device) ColumnResources(x, y0, y1 int) ResourceCount {
	var rc ResourceCount
	rows := y1 - y0 + 1
	if rows <= 0 {
		return rc
	}
	switch d.Columns[x] {
	case ColCLBL:
		rc.SlicesL = rows * SlicesPerCLB
	case ColCLBM:
		// One M and one L slice per CLB.
		rc.SlicesM = rows
		rc.SlicesL = rows
	case ColBRAM:
		rc.BRAM = fullTiles(y0, y1, BRAMRows)
	case ColDSP:
		rc.DSP = fullTiles(y0, y1, DSPRows) * DSPPerTile
	}
	return rc
}

// fullTiles counts how many aligned tiles of the given pitch fit fully
// within rows [y0, y1].
func fullTiles(y0, y1, pitch int) int {
	first := (y0 + pitch - 1) / pitch
	last := (y1+1)/pitch - 1
	if last < first {
		return 0
	}
	return last - first + 1
}

// Resources returns the total resources of the whole device.
func (d *Device) Resources() ResourceCount {
	var rc ResourceCount
	for x := range d.Columns {
		rc = rc.Add(d.ColumnResources(x, 0, d.Rows-1))
	}
	return rc
}

// SliceTypeAt reports whether slice s (0 or 1) of the CLB at column x is
// M-type. Only slice 0 of a CLBM column is M-type.
func (d *Device) SliceTypeAt(x, s int) bool {
	return d.Columns[x] == ColCLBM && s == 0
}

// String implements fmt.Stringer with a one-line device summary.
func (d *Device) String() string {
	rc := d.Resources()
	return fmt.Sprintf("%s: %d cols x %d rows, %d slices (%d M), %d BRAM, %d DSP",
		d.Name, len(d.Columns), d.Rows, rc.Slices(), rc.SlicesM, rc.BRAM, rc.DSP)
}

// Layout describes a device to construct with NewDevice.
type Layout struct {
	Name            string
	CLBLCols        int // number of all-L CLB columns
	CLBMCols        int // number of M/L CLB columns
	BRAMCols        int // number of RAMB36 columns
	DSPCols         int // number of DSP columns
	ClockCols       int // number of clock distribution columns
	Rows            int // device height in CLB rows
	ClockRegionRows int
}

// NewDevice builds a device from repeated identical column units, the
// way real 7-series parts tile a quasi-periodic fabric. Each unit holds
// an equal share of the L/M CLB columns and one BRAM column; DSP and
// clock columns are inserted between units, and leftover CLB columns pad
// the right edge. The periodicity matters: pre-implemented blocks can
// only relocate to positions with identical column sequences, so a
// repeating pattern is what gives the stitcher room to work (§IV).
func NewDevice(l Layout) *Device {
	units := l.BRAMCols
	if units < 1 {
		units = 1
	}
	lu := l.CLBLCols / units
	mu := l.CLBMCols / units

	// One unit: L and M columns interleaved by Bresenham, BRAM last.
	unit := make([]ColumnKind, 0, lu+mu+1)
	accL, accM := 0, 0
	for len(unit) < lu+mu {
		if (accL+1)*mu <= (accM+1)*lu || accM >= mu {
			unit = append(unit, ColCLBL)
			accL++
		} else {
			unit = append(unit, ColCLBM)
			accM++
		}
	}
	if l.BRAMCols > 0 {
		unit = append(unit, ColBRAM)
	}

	// The clock column(s) sit after the middle unit; DSP columns are
	// clubbed at the right edge so the CLB/BRAM units stay identical —
	// what preserves relocation freedom for pre-implemented blocks.
	clkAfter := make(map[int]int)
	for i := 0; i < l.ClockCols; i++ {
		clkAfter[units/2]++
	}

	cols := make([]ColumnKind, 0, 2+l.CLBLCols+l.CLBMCols+l.BRAMCols+l.DSPCols+l.ClockCols)
	cols = append(cols, ColIO)
	for u := 0; u < units; u++ {
		cols = append(cols, unit...)
		for i := 0; i < clkAfter[u]; i++ {
			cols = append(cols, ColClock)
		}
	}
	// Pad remainders, L/M interleaved, then the DSP band at the edge.
	remL := l.CLBLCols - lu*units
	remM := l.CLBMCols - mu*units
	for remL > 0 || remM > 0 {
		if remL > 0 {
			cols = append(cols, ColCLBL)
			remL--
		}
		if remM > 0 {
			cols = append(cols, ColCLBM)
			remM--
		}
	}
	for i := 0; i < l.DSPCols; i++ {
		cols = append(cols, ColDSP)
	}
	cols = append(cols, ColIO)

	return &Device{
		Name:            l.Name,
		Columns:         cols,
		Rows:            l.Rows,
		ClockRegionRows: l.ClockRegionRows,
	}
}

// XC7Z020 models the Zynq-7020 fabric: ~13,300 slices (within grid
// quantization), 140-class BRAM and 220-class DSP counts, 3 clock regions.
func XC7Z020() *Device {
	return NewDevice(Layout{
		Name:            "xc7z020",
		CLBLCols:        29,
		CLBMCols:        15,
		BRAMCols:        5,
		DSPCols:         4,
		ClockCols:       1,
		Rows:            150,
		ClockRegionRows: 50,
	})
}

// XC7Z045 models the Zynq-7045 fabric: ~54,650 slices, 545-class BRAM,
// 900-class DSP, 7 clock regions.
func XC7Z045() *Device {
	return NewDevice(Layout{
		Name:            "xc7z045",
		CLBLCols:        52,
		CLBMCols:        26,
		BRAMCols:        8,
		DSPCols:         6,
		ClockCols:       1,
		Rows:            350,
		ClockRegionRows: 50,
	})
}
