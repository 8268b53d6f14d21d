package pblock

import (
	"fmt"
	"math"
	"testing"

	"macroflow/internal/cnv"
	"macroflow/internal/fabric"
	"macroflow/internal/place"
)

// buildByScan is Build as it was before widthFor read each column's
// resources in closed form and handed the rectangle's total back: every
// column of every candidate height is a one-column RectResources scan,
// and the winner's slices a second scan of the whole rectangle. Kept as
// the reference TestBuildMatchesColumnScan holds Build against.
func buildByScan(dev *fabric.Device, rep place.ShapeReport, cf float64, cfg Config) (PBlock, error) {
	target := max(1, int(math.Ceil(float64(rep.EstSlices)*cf)))
	need := fabric.ResourceCount{SlicesM: rep.EstSlicesM, BRAM: rep.EstBRAM, DSP: rep.EstDSP}
	need.SlicesL = max(0, target-need.SlicesM)
	aspect := cfg.Aspect
	if aspect <= 0 {
		aspect = 1.0
	}
	width := func(h int) (int, bool) {
		y0, y1 := cfg.AnchorY, cfg.AnchorY+h-1
		if y1 >= dev.Rows {
			return 0, false
		}
		var have fabric.ResourceCount
		for x := cfg.AnchorX; x < dev.NumCols(); x++ {
			have = have.Add(dev.RectResources(fabric.Rect{X0: x, Y0: y0, X1: x, Y1: y1}))
			if have.Covers(need) {
				return x - cfg.AnchorX + 1, true
			}
		}
		return 0, false
	}
	rect := func(w, h int) fabric.Rect {
		return fabric.Rect{X0: cfg.AnchorX, Y0: cfg.AnchorY, X1: cfg.AnchorX + w - 1, Y1: cfg.AnchorY + h - 1}
	}
	hMin := max(1, rep.MaxShapeHeight)
	hNom := max(hMin, int(math.Ceil(math.Sqrt(float64(target)/(2*aspect)))))
	hMax := min(hNom*2+8, dev.Rows-cfg.AnchorY)
	best, bestSlices, bestAspectOK := fabric.Rect{}, -1, false
	for h := hMin; h <= hMax; h++ {
		w, ok := width(h)
		if !ok {
			continue
		}
		slices := dev.RectResources(rect(w, h)).Slices()
		aspectOK := w <= 3*h+2
		if aspectOK && !bestAspectOK || aspectOK == bestAspectOK && (bestSlices < 0 || slices < bestSlices) {
			best, bestSlices, bestAspectOK = rect(w, h), slices, aspectOK
		}
	}
	if bestSlices < 0 {
		for h := hMax + 1; h <= dev.Rows-cfg.AnchorY; h++ {
			if w, ok := width(h); ok {
				return PBlock{Rect: rect(w, h), TargetSlices: target, CF: cf}, nil
			}
		}
		return PBlock{}, fmt.Errorf("%w: need %+v", ErrNoFit, need)
	}
	return PBlock{Rect: best, TargetSlices: target, CF: cf}, nil
}

// TestBuildMatchesColumnScan: for every cnvW1A1 block, at every grid CF
// of the compile window and past it until the block no longer fits,
// on both devices and at an anchor off the BRAM/DSP pitch, Build returns
// the PBlock — or the error — of the per-column scan it replaced.
func TestBuildMatchesColumnScan(t *testing.T) {
	d := cnv.CNVW1A1()
	offPitch := DefaultConfig()
	offPitch.AnchorX, offPitch.AnchorY = 3, 7
	built, noFit := 0, 0
	for _, dev := range []*fabric.Device{fabric.XC7Z020(), fabric.XC7Z045()} {
		for ti := range d.Types {
			m, err := d.Module(ti)
			if err != nil {
				t.Fatal(err)
			}
			rep := place.QuickPlace(m)
			for _, cfg := range []Config{DefaultConfig(), offPitch} {
				// The compile window's grid, then ever larger CFs until
				// the block outgrows the device.
				for i := 0; ; i++ {
					cf := cnvWindow.cfAt(i)
					if cf > cnvWindow.Max {
						cf = roundCF(cnvWindow.Max * math.Pow(1.5, float64(i-cnvWindow.lastIndex())))
					}
					got, gotErr := Build(dev, rep, cf, cfg)
					want, wantErr := buildByScan(dev, rep, cf, cfg)
					if got != want || (gotErr == nil) != (wantErr == nil) ||
						gotErr != nil && gotErr.Error() != wantErr.Error() {
						t.Fatalf("%s %s cf %.2f anchor (%d,%d): Build %v, %v; column scan %v, %v",
							dev.Name, m.Name, cf, cfg.AnchorX, cfg.AnchorY, got, gotErr, want, wantErr)
					}
					built++
					if gotErr != nil {
						noFit++
						break
					}
				}
			}
		}
	}
	if noFit == 0 {
		t.Fatal("no block outgrew a device: the no-fit path went untested")
	}
	t.Logf("%d PBlocks compared, %d of them no-fit errors", built, noFit)
}
