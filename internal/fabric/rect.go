package fabric

import "fmt"

// Rect is a rectangular region of the device in tile coordinates,
// inclusive on all four edges. It is the geometric form of a PBlock.
type Rect struct {
	X0, Y0 int // bottom-left tile
	X1, Y1 int // top-right tile
}

// Width returns the rectangle width in tile columns.
func (r Rect) Width() int { return r.X1 - r.X0 + 1 }

// Height returns the rectangle height in CLB rows.
func (r Rect) Height() int { return r.Y1 - r.Y0 + 1 }

// Area returns the number of tiles covered.
func (r Rect) Area() int { return r.Width() * r.Height() }

// Valid reports whether the rectangle is non-degenerate.
func (r Rect) Valid() bool { return r.X1 >= r.X0 && r.Y1 >= r.Y0 }

// Contains reports whether tile (x, y) lies inside the rectangle.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x <= r.X1 && y >= r.Y0 && y <= r.Y1
}

// Overlaps reports whether two rectangles share at least one tile.
func (r Rect) Overlaps(o Rect) bool {
	return r.X0 <= o.X1 && o.X0 <= r.X1 && r.Y0 <= o.Y1 && o.Y0 <= r.Y1
}

// Translate returns the rectangle shifted by (dx, dy).
func (r Rect) Translate(dx, dy int) Rect {
	return Rect{r.X0 + dx, r.Y0 + dy, r.X1 + dx, r.Y1 + dy}
}

// String implements fmt.Stringer in PBlock-constraint style.
func (r Rect) String() string {
	return fmt.Sprintf("TILE_X%dY%d:TILE_X%dY%d", r.X0, r.Y0, r.X1, r.Y1)
}

// RectResources returns the fabric resources available inside r.
// Out-of-bounds portions contribute nothing.
func (d *Device) RectResources(r Rect) ResourceCount {
	var rc ResourceCount
	if !r.Valid() {
		return rc
	}
	y0, y1 := max(r.Y0, 0), min(r.Y1, d.Rows-1)
	if y1 < y0 {
		return rc
	}
	for x := max(r.X0, 0); x <= min(r.X1, len(d.Columns)-1); x++ {
		rc = rc.Add(d.ColumnResources(x, y0, y1))
	}
	return rc
}

// ColumnSignature returns the sequence of column kinds spanned by the
// horizontal extent [x0, x1]. Two placements of the same footprint are
// relocation-compatible only if their signatures are equal, mirroring the
// RapidWright rule that pre-implemented blocks relocate only across
// columns of identical resource types.
func (d *Device) ColumnSignature(x0, x1 int) []ColumnKind {
	if x0 < 0 || x1 >= len(d.Columns) || x1 < x0 {
		return nil
	}
	sig := make([]ColumnKind, x1-x0+1)
	copy(sig, d.Columns[x0:x1+1])
	return sig
}

// SignatureMatches reports whether placing a footprint whose home span
// starts at column homeX with the given width is column-compatible with a
// new origin column newX.
func (d *Device) SignatureMatches(homeX, width, newX int) bool {
	if newX < 0 || newX+width > len(d.Columns) {
		return false
	}
	for i := 0; i < width; i++ {
		if d.Columns[homeX+i] != d.Columns[newX+i] {
			return false
		}
	}
	return true
}

// RowShiftCompatible reports whether shifting a footprint vertically by
// dy rows preserves site alignment. CLB columns relocate at any row;
// BRAM and DSP columns require the shift to be a multiple of their tile
// pitch so that RAMB36/DSP sites land on sites again.
func (d *Device) RowShiftCompatible(x0, x1, dy int) bool {
	for x := max(x0, 0); x <= min(x1, len(d.Columns)-1); x++ {
		switch d.Columns[x] {
		case ColBRAM:
			if dy%BRAMRows != 0 {
				return false
			}
		case ColDSP:
			if dy%DSPRows != 0 {
				return false
			}
		}
	}
	return true
}

// CompatibleOriginsX returns every column index at which a footprint
// whose home span is [homeX, homeX+width) may be horizontally placed.
func (d *Device) CompatibleOriginsX(homeX, width int) []int {
	var out []int
	for x := 0; x+width <= len(d.Columns); x++ {
		if d.SignatureMatches(homeX, width, x) {
			out = append(out, x)
		}
	}
	return out
}

// ClockColumnsIn returns the number of clock distribution columns a
// rectangle straddles; crossing them costs timing, per the paper §IV.
func (d *Device) ClockColumnsIn(r Rect) int {
	n := 0
	for x := max(r.X0, 0); x <= min(r.X1, len(d.Columns)-1); x++ {
		if d.Columns[x] == ColClock {
			n++
		}
	}
	return n
}
