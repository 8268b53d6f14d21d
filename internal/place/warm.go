package place

import (
	"math"

	"macroflow/internal/fabric"
	"macroflow/internal/netlist"
)

// transplant attempts a warm start: re-using a previous placement of the
// same module inside a (possibly different) rectangle, instead of
// re-packing from scratch. Because site coordinates are absolute device
// tiles and every PBlock in one search shares its anchor, a placement
// that was legal in a previous rectangle is legal in any rectangle that
// still contains all of its cells — the transplanted result is audited
// with Verify, and any violation falls back to the cold-start packer.
//
// The reuse is all-or-nothing: cell coordinates record tiles, not slice
// sites, so a partially transplanted placement could not re-derive the
// per-slice claims (carry runs, control-set ownership, fill levels) the
// constructive passes would need to legally place the remainder.
//
// It needs nothing of the cold packer's state — no seed, no site
// tables — only the spread the new rectangle gives the module.
func transplant(dev *fabric.Device, m *netlist.Module, rect fabric.Rect, spread float64, warm *Placement) (*Placement, bool) {
	if warm == nil || warm.Module == nil || len(warm.CellAt) != len(m.Cells) {
		return nil, false
	}
	for _, at := range warm.CellAt {
		if at.X < 0 || at.Y < 0 || !rect.Contains(int(at.X), int(at.Y)) {
			return nil, false
		}
	}
	pl := &Placement{
		Module:     m,
		Rect:       rect,
		CellAt:     append([]Coord(nil), warm.CellAt...),
		UsedSlices: warm.UsedSlices,
		Spread:     spread,
		Footprint:  shiftFootprint(&warm.Footprint, warm.Rect.X0-rect.X0, warm.Rect.Y0-rect.Y0, rect.Width(), rect.Height()),
	}
	if Verify(dev, pl) != nil {
		return nil, false
	}
	return pl, true
}

// shiftFootprint re-expresses a footprint recorded relative to one
// rectangle origin in the coordinates of another, padding or cropping
// columns to the new width.
func shiftFootprint(f *Footprint, dx, dy, width, rows int) Footprint {
	out := Footprint{Width: width, Rows: rows, Cols: make([]RowSpan, width)}
	for i := range out.Cols {
		out.Cols[i] = RowSpan{Min: math.MaxInt32, Max: -1}
	}
	for i, c := range f.Cols {
		if c.Empty() {
			continue
		}
		rel := i + dx
		if rel < 0 || rel >= width {
			continue
		}
		out.Cols[rel] = RowSpan{Min: c.Min + dy, Max: c.Max + dy, Used: c.Used}
	}
	return out
}
