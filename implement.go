package macroflow

import (
	"fmt"
	"io"

	"macroflow/internal/ml"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/timing"
)

// ModuleResult is the public outcome of implementing one module
// (apiv1.BlockResult is this type; the JSON tags are the wire spelling).
type ModuleResult struct {
	Name string `json:"name"`
	// CF is the correction factor the module was implemented with.
	CF float64 `json:"cf"`
	// ToolRuns counts place-and-route attempts spent finding it.
	ToolRuns int `json:"toolRuns"`
	// EstSlices is the optimistic quick-placement estimate.
	EstSlices int `json:"estSlices"`
	// UsedSlices is the slice count of the final placement.
	UsedSlices int `json:"usedSlices"`
	// PBlock is the area constraint in tile coordinates.
	PBlock string `json:"pblock"`
	// LongestPathNS is the estimated critical path.
	LongestPathNS float64 `json:"longestPathNs"`
	// Irregularity measures footprint raggedness (0 = rectangle).
	Irregularity float64 `json:"irregularity"`
	// MaxFanout, ControlSets, CarryChains summarize the synthesis stats.
	MaxFanout   int `json:"maxFanout"`
	ControlSets int `json:"controlSets"`
	CarryChains int `json:"carryChains"`
}

func (f *Flow) moduleResult(name string, rep place.ShapeReport, sr pblock.SearchResult) ModuleResult {
	r := ModuleResult{
		Name:        name,
		CF:          sr.CF,
		ToolRuns:    sr.ToolRuns,
		EstSlices:   rep.EstSlices,
		MaxFanout:   rep.Stats.MaxFanout,
		ControlSets: rep.Stats.ControlSets,
		CarryChains: rep.Stats.NumChains,
	}
	if sr.Impl != nil {
		r.UsedSlices = sr.Impl.Placement.UsedSlices
		r.PBlock = sr.Impl.PBlock.Rect.String()
		r.Irregularity = sr.Impl.Placement.Footprint.Irregularity()
		r.LongestPathNS = timing.LongestPath(f.dev, sr.Impl.Placement, sr.Impl.Route, timing.DefaultModel())
	}
	return r
}

// Implement places and routes the module inside a PBlock built with a
// fixed correction factor.
func (f *Flow) Implement(s *Spec, cf float64) (ModuleResult, error) {
	m, rep, err := pblock.FrontEnd(s.inner, nil)
	if err != nil {
		return ModuleResult{}, err
	}
	impl, err := pblock.Implement(f.dev, m, rep, cf, f.cfg)
	if err != nil {
		return ModuleResult{}, err
	}
	return f.moduleResult(m.Name, rep, pblock.SearchResult{CF: cf, Impl: impl, ToolRuns: 1}), nil
}

// ImplementBlock implements one block under the CF mode. It is a
// one-block Compile with SkipStitch, so a block alone and the same block
// in a design get the same result.
func (f *Flow) ImplementBlock(s *Spec, mode CFMode) (ModuleResult, error) {
	d := NewDesign()
	d.AddBlockType(s)
	res, err := f.Compile(d, mode, CompileOptions{SkipStitch: true})
	if err != nil {
		return ModuleResult{}, err
	}
	return res.Blocks[0], nil
}

// Features returns the estimator features of a spec — useful for
// inspecting what the models see.
func (f *Flow) Features(s *Spec) (map[string]float64, error) {
	_, rep, err := pblock.FrontEnd(s.inner, nil)
	if err != nil {
		return nil, err
	}
	feats := ml.Extract(rep)
	names := ml.All.Names()
	vec := ml.All.Vector(feats)
	out := make(map[string]float64, len(names))
	for i, n := range names {
		out[n] = vec[i]
	}
	return out, nil
}

// String renders a module result compactly.
func (r ModuleResult) String() string {
	return fmt.Sprintf("%s: cf=%.2f slices=%d (est %d) pblock=%s runs=%d path=%.2fns",
		r.Name, r.CF, r.UsedSlices, r.EstSlices, r.PBlock, r.ToolRuns, r.LongestPathNS)
}

// DumpNetlist compiles the spec and writes its post-synthesis netlist in
// the line-oriented text format of the netlist package — useful for
// inspecting what elaboration produced for a block.
func (f *Flow) DumpNetlist(w io.Writer, s *Spec) error {
	m, _, err := pblock.FrontEnd(s.inner, nil)
	if err != nil {
		return err
	}
	return m.WriteText(w)
}
