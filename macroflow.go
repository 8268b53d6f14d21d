// Package macroflow is a pre-implemented-block ("hard macro") FPGA
// compilation flow with learned PBlock sizing, reproducing the system of
// "Improving mapping of convolutional neural networks on FPGAs through
// tailored macro sizes" (IPPS 2025) on a simulated 7-series fabric.
//
// The flow mirrors RapidWright's: every unique block of a design is
// synthesized, quick-placed, constrained to a rectangular PBlock sized as
// estimated-slices x correction-factor (CF), then placed and routed
// inside it; a simulated-annealing stitcher finally replicates the
// pre-implemented blocks across the device. The package's contribution —
// like the paper's — is the machinery for choosing the CF: an exhaustive
// minimal-CF search, and learned estimators (linear regression, neural
// network, decision tree, random forest) trained on generated RTL.
//
// Typical use:
//
//	flow, _ := macroflow.NewFlow("xc7z020")
//	spec := macroflow.NewSpec("my_block").
//		ShiftRegs(8, 16, 4, 6).
//		SumOfSquares(12, 2)
//	res, _ := flow.MinCF(spec)
//	fmt.Println(res.CF, res.UsedSlices)
package macroflow

import (
	"fmt"

	"macroflow/internal/fabric"
	"macroflow/internal/pblock"
)

// Flow is a configured compilation flow for one target device.
type Flow struct {
	dev    *fabric.Device
	cfg    pblock.Config
	search pblock.SearchConfig
}

// DeviceInfo summarizes the target fabric.
type DeviceInfo struct {
	Name         string
	Slices       int
	SlicesM      int
	BRAM         int
	DSP          int
	ClockRegions int
}

// NewFlow creates a flow targeting the named device ("xc7z020" or
// "xc7z045").
func NewFlow(device string) (*Flow, error) {
	var dev *fabric.Device
	switch device {
	case "xc7z020":
		dev = fabric.XC7Z020()
	case "xc7z045":
		dev = fabric.XC7Z045()
	default:
		return nil, fmt.Errorf("macroflow: unknown device %q (xc7z020, xc7z045)", device)
	}
	return &Flow{
		dev:    dev,
		cfg:    pblock.DefaultConfig(),
		search: pblock.DefaultSearch(),
	}, nil
}

// Device returns the target device summary.
func (f *Flow) Device() DeviceInfo {
	rc := f.dev.Resources()
	return DeviceInfo{
		Name:         f.dev.Name,
		Slices:       rc.Slices(),
		SlicesM:      rc.SlicesM,
		BRAM:         rc.BRAM,
		DSP:          rc.DSP,
		ClockRegions: f.dev.ClockRegions(),
	}
}

// SetSearch overrides the CF search window (start, step, max). The paper
// uses start 0.9 at step 0.02; a step that is not a positive multiple of
// 0.02 fails every search of the flow. The search strategy configured on
// the flow is preserved.
func (f *Flow) SetSearch(start, step, max float64) {
	f.search.Start = start
	f.search.Step = step
	f.search.Max = max
}

// SearchStrategy selects the minimal-CF search algorithm.
type SearchStrategy = pblock.Strategy

const (
	// SearchLinear is the paper's exhaustive sweep (the default): every
	// grid CF from the window start is implemented until the first
	// feasible one. Its ToolRuns accounting is the paper's run-time
	// metric, so experiments reproducing the paper's tables use it.
	SearchLinear = pblock.StrategyLinear
	// SearchBisect finds the same minimal CF in O(log) place-and-route
	// runs by galloping and bisecting over the monotone feasibility
	// boundary. Use it when the CFs themselves are the goal (dataset
	// generation, calibration) rather than the paper's run counts.
	SearchBisect = pblock.StrategyBisect
)

// SetSearchStrategy selects the minimal-CF search algorithm; both
// strategies return identical CFs.
func (f *Flow) SetSearchStrategy(s SearchStrategy) {
	f.search.Strategy = s
}
