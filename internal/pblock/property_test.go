package pblock

import (
	"testing"
	"testing/quick"

	"macroflow/internal/fabric"
	"macroflow/internal/place"
)

// Property: Build always provides at least the CF-scaled slice target,
// and for slice-bound blocks (where the rectangle is not dictated by
// BRAM/M-column geometry) a larger correction factor never yields a
// PBlock with fewer slices.
func TestBuildMonotoneProperty(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	f := func(est16 uint16, m8, b4 uint8, cfStepA, cfStepB uint8) bool {
		rep := place.ShapeReport{
			EstSlices:  1 + int(est16)%3000,
			EstSlicesM: int(m8) % 64,
			EstBRAM:    int(b4) % 8,
		}
		cfA := 0.5 + float64(cfStepA%60)*0.02
		cfB := cfA + float64(cfStepB%30)*0.02
		pbA, errA := Build(dev, rep, cfA, cfg)
		pbB, errB := Build(dev, rep, cfB, cfg)
		if errA != nil || errB != nil {
			return true // does not fit at all: nothing to compare
		}
		slicesA := dev.RectResources(pbA.Rect).Slices()
		slicesB := dev.RectResources(pbB.Rect).Slices()
		if slicesA < pbA.TargetSlices || slicesB < pbB.TargetSlices {
			return false
		}
		sliceBound := slicesA <= pbA.TargetSlices*3/2 && slicesB <= pbB.TargetSlices*3/2
		if !sliceBound {
			return true // geometry-bound: capacity tracks columns, not CF
		}
		return slicesB >= slicesA
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Build always covers the M-slice and BRAM demand.
func TestBuildCoversProperty(t *testing.T) {
	dev := fabric.XC7Z045()
	cfg := DefaultConfig()
	f := func(est16 uint16, m8, b4 uint8) bool {
		rep := place.ShapeReport{
			EstSlices:  1 + int(est16)%5000,
			EstSlicesM: int(m8) % 200,
			EstBRAM:    int(b4) % 30,
		}
		pb, err := Build(dev, rep, 1.0, cfg)
		if err != nil {
			return true
		}
		rc := dev.RectResources(pb.Rect)
		return rc.SlicesM >= rep.EstSlicesM && rc.BRAM >= rep.EstBRAM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
