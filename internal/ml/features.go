// Package ml implements the paper's four correction-factor estimators —
// linear regression, a shallow feed-forward neural network trained with
// ADAM, a CART regression decision tree, and a random forest — together
// with the feature sets of §VII (classical, classical + placement,
// relative "additional", and all) and impurity-based feature importance.
//
// Everything is stdlib-only and deterministic under explicit seeds.
package ml

import "macroflow/internal/place"

// Features are the raw per-module quantities the estimators consume,
// extracted from synthesis statistics and the quick-placement shape
// report (Fig. 1).
type Features struct {
	// Absolute ("classical") quantities.
	LUTs        float64 // logic LUTs
	CLBMs       float64 // demanded M slices
	FFs         float64
	ControlSets float64
	Carrys      float64 // CARRY4 segments
	MaxFanout   float64

	// Placement (shape report) quantities: the geometry of the carry
	// shapes the quick placement emits (each shape is one slice column
	// wide and chain-length tall).
	ShapeW    float64 // number of carry shapes (width if packed side by side)
	ShapeH    float64 // tallest carry shape, rows (the PBlock height floor)
	ShapeArea float64 // total slice area covered by shapes

	// Derived bases.
	EstSlices  float64
	TotalCells float64
	BRAMs      float64
}

// Extract derives Features from a shape report.
func Extract(rep place.ShapeReport) Features {
	s := rep.Stats
	est := float64(rep.EstSlices)
	if est < 1 {
		est = 1
	}
	h := float64(rep.MaxShapeHeight)
	if h < 1 {
		h = 1
	}
	w := float64(len(rep.CarryShapes))
	if w < 1 {
		w = 1
	}
	area := 0.0
	for _, l := range rep.CarryShapes {
		area += float64(l)
	}
	if area < 1 {
		area = 1
	}
	return Features{
		LUTs:        float64(s.LUTs),
		CLBMs:       float64(rep.EstSlicesM),
		FFs:         float64(s.FFs),
		ControlSets: float64(s.ControlSets),
		Carrys:      float64(s.Carrys),
		MaxFanout:   float64(s.MaxFanout),
		ShapeW:      w,
		ShapeH:      h,
		ShapeArea:   area,
		EstSlices:   est,
		TotalCells:  float64(s.TotalCells()),
		BRAMs:       float64(s.BRAMs),
	}
}

// relative computes the size-invariant quantities of the "additional"
// feature set (§VII): resource shares of the estimated slice count, the
// density pressure, control-set fragmentation, relative fanout and the
// BRAM-driven-geometry indicator.
func (f Features) relative() (carryRel, ffRel, lutRel, mRel, density, csRel, fanRel, bramRel float64) {
	est := f.EstSlices
	if est < 1 {
		est = 1
	}
	carryRel = f.Carrys / est
	ffRel = f.FFs / (8 * est)
	lutRel = f.LUTs / (4 * est)
	mRel = f.CLBMs / est
	// Density is the packing-exclusivity pressure of §V-E: carry slices
	// exclude logic LUTs and memory slices exclude both, so the slice
	// demand of a dense module exceeds the optimistic max-based estimate
	// by roughly this ratio.
	density = (ceilF(f.LUTs/4) + f.Carrys + f.CLBMs) / est
	csRel = f.ControlSets / est
	cells := f.TotalCells
	if cells < 1 {
		cells = 1
	}
	fanRel = f.MaxFanout / cells
	bramRel = f.BRAMs / est
	return
}

func ceilF(v float64) float64 {
	i := float64(int(v))
	if v > i {
		return i + 1
	}
	return i
}

// FeatureSet selects which inputs a model sees, mirroring Table II.
type FeatureSet int

const (
	// Classical is the raw-count set: LUTs, CLBMs, FFs, control sets,
	// carry elements, max fanout.
	Classical FeatureSet = iota
	// ClassicalPlacement extends Classical with the estimated shape
	// area from the quick placement ("Classical*" in Table II).
	ClassicalPlacement
	// Additional is the size-invariant relative set.
	Additional
	// All combines every feature.
	All
	// LinRegSet is the nine-input set used for the paper's linear
	// regression baseline (§VI-B).
	LinRegSet
)

// String names the feature set as in Table II.
func (fs FeatureSet) String() string {
	switch fs {
	case Classical:
		return "Classical"
	case ClassicalPlacement:
		return "Classical*"
	case Additional:
		return "Additional"
	case All:
		return "All"
	case LinRegSet:
		return "LinReg9"
	}
	return "?"
}

// Names returns the feature labels in vector order.
func (fs FeatureSet) Names() []string {
	switch fs {
	case Classical:
		return []string{"LUTs", "CLBMs", "FFs", "CtrlSets", "Carry", "MaxFanout"}
	case ClassicalPlacement:
		return []string{"LUTs", "CLBMs", "FFs", "CtrlSets", "Carry", "MaxFanout", "ShapeArea"}
	case Additional:
		return []string{"Carry/All", "FF/All", "LUT/All", "CLBM/All", "Density", "CtrlSets/All", "Fanout/Cells", "BRAM/All"}
	case All:
		return []string{
			"LUTs", "CLBMs", "FFs", "CtrlSets", "Carry", "MaxFanout", "ShapeArea",
			"Carry/All", "FF/All", "LUT/All", "CLBM/All", "Density", "CtrlSets/All", "Fanout/Cells", "BRAM/All",
		}
	case LinRegSet:
		return []string{"MaxFanout", "CtrlSets", "Density", "CLBM/All", "Carry/All", "ShapeW", "ShapeH", "ShapeArea", "FF/All"}
	}
	return nil
}

// Vector projects the features onto the selected set.
func (fs FeatureSet) Vector(f Features) []float64 {
	carryRel, ffRel, lutRel, mRel, density, csRel, fanRel, bramRel := f.relative()
	switch fs {
	case Classical:
		return []float64{f.LUTs, f.CLBMs, f.FFs, f.ControlSets, f.Carrys, f.MaxFanout}
	case ClassicalPlacement:
		return []float64{f.LUTs, f.CLBMs, f.FFs, f.ControlSets, f.Carrys, f.MaxFanout, f.ShapeArea}
	case Additional:
		return []float64{carryRel, ffRel, lutRel, mRel, density, csRel, fanRel, bramRel}
	case All:
		return []float64{
			f.LUTs, f.CLBMs, f.FFs, f.ControlSets, f.Carrys, f.MaxFanout, f.ShapeArea,
			carryRel, ffRel, lutRel, mRel, density, csRel, fanRel, bramRel,
		}
	case LinRegSet:
		return []float64{f.MaxFanout, f.ControlSets, density, mRel, carryRel, f.ShapeW, f.ShapeH, f.ShapeArea, ffRel}
	}
	return nil
}
