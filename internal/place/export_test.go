package place

import "macroflow/internal/fabric"

// LUTCountVsFill runs one cold probe up to the LUT phase and then both
// halves of placeLUTs, the fill loop unconditionally: it returns the
// counted capacity, what the loop placed and the number of logic LUTs.
// reached is false when an earlier phase already rejected the probe.
func LUTCountVsFill(pl *Plan, dev *fabric.Device, rect fabric.Rect, opts Options) (count, placed, luts int, reached bool) {
	p := &placer{plan: pl}
	if p.open(dev, rect, opts) != nil || p.placeFixed(opts) != nil {
		return 0, 0, 0, false
	}
	return p.lutCapacity(), p.fillLUTs(), len(pl.luts), true
}
