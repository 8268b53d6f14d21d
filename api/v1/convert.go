package apiv1

import (
	"fmt"

	"macroflow"
	"macroflow/internal/pblock"
)

// BuiltinCNVW1A1 is the one builtin design spelling DesignSpec.Builtin
// accepts.
const BuiltinCNVW1A1 = "cnvW1A1"

// Validate checks the request's wire-level invariants (exactly one
// design source, known mode/component spellings, index ranges). Option
// semantics — backend spellings, negative budgets — are validated by
// the flow's own StitchOptions.Validate / ImplementOptions.Validate
// after conversion, so HTTP and CLI reject them with identical
// messages.
func (r *CompileRequest) Validate() error {
	switch r.Device {
	case "", "xc7z020", "xc7z045":
	default:
		return &Error{Code: ErrInvalidOptions,
			Message: fmt.Sprintf("unknown device %q (xc7z020, xc7z045)", r.Device)}
	}
	if err := r.Design.validate(); err != nil {
		return err
	}
	switch r.Mode.Kind {
	case "", "minsweep", "constant", "estimator":
	default:
		return &Error{Code: ErrInvalidOptions,
			Message: fmt.Sprintf("unknown cf mode %q (minsweep, constant, estimator)", r.Mode.Kind)}
	}
	if r.Mode.Kind == "constant" && r.Mode.CF <= 0 {
		return &Error{Code: ErrInvalidOptions,
			Message: fmt.Sprintf("constant mode needs cf > 0 (got %g)", r.Mode.CF)}
	}
	if s := r.Search; s != nil {
		if s.Start <= 0 || s.Max < s.Start {
			return &Error{Code: ErrInvalidOptions,
				Message: fmt.Sprintf("bad search window start=%g step=%g max=%g", s.Start, s.Step, s.Max)}
		}
		if err := (pblock.SearchConfig{Start: s.Start, Step: s.Step, Max: s.Max}).Validate(); err != nil {
			return &Error{Code: ErrInvalidOptions, Message: err.Error()}
		}
	}
	return nil
}

func (d *DesignSpec) validate() error {
	if d.Builtin != "" {
		if d.Builtin != BuiltinCNVW1A1 {
			return &Error{Code: ErrInvalidOptions,
				Message: fmt.Sprintf("unknown builtin design %q (only %q)", d.Builtin, BuiltinCNVW1A1)}
		}
		if len(d.Blocks) > 0 || len(d.Instances) > 0 || len(d.Nets) > 0 {
			return &Error{Code: ErrInvalidOptions,
				Message: "a builtin design cannot also carry blocks/instances/nets"}
		}
		return nil
	}
	if len(d.Blocks) == 0 {
		return &Error{Code: ErrInvalidOptions, Message: "design needs a builtin name or at least one block"}
	}
	if len(d.Instances) == 0 {
		return &Error{Code: ErrInvalidOptions, Message: "design needs at least one instance"}
	}
	for i, b := range d.Blocks {
		if b.Name == "" {
			return &Error{Code: ErrInvalidOptions, Message: fmt.Sprintf("block %d has no name", i)}
		}
		if len(b.Components) == 0 {
			return &Error{Code: ErrInvalidOptions, Message: fmt.Sprintf("block %q has no components", b.Name)}
		}
		for _, c := range b.Components {
			switch c.Kind {
			case CompShiftRegs, CompSRLs, CompMemory, CompDistributedMemory,
				CompSumOfSquares, CompLFSRs, CompLogic:
			default:
				return &Error{Code: ErrInvalidOptions,
					Message: fmt.Sprintf("block %q: unknown component kind %q", b.Name, c.Kind)}
			}
		}
	}
	for i, in := range d.Instances {
		if in.Block < 0 || in.Block >= len(d.Blocks) {
			return &Error{Code: ErrInvalidOptions,
				Message: fmt.Sprintf("instance %d references block %d of %d", i, in.Block, len(d.Blocks))}
		}
	}
	for i, n := range d.Nets {
		if n.From < 0 || n.From >= len(d.Instances) || n.To < 0 || n.To >= len(d.Instances) {
			return &Error{Code: ErrInvalidOptions,
				Message: fmt.Sprintf("net %d endpoints (%d, %d) out of range", i, n.From, n.To)}
		}
	}
	return nil
}

// BuildDesign converts a custom DesignSpec into a macroflow.Design.
// Callers handle Builtin themselves (the builtin designs run through
// their dedicated flow entry points).
func (d *DesignSpec) BuildDesign() (*macroflow.Design, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	if d.Builtin != "" {
		return nil, &Error{Code: ErrInvalidOptions, Message: "builtin designs are not built client-side"}
	}
	out := macroflow.NewDesign()
	for _, b := range d.Blocks {
		spec := macroflow.NewSpec(b.Name)
		for _, c := range b.Components {
			switch c.Kind {
			case CompShiftRegs:
				spec.ShiftRegs(c.Count, c.Length, c.ControlSets, c.Fanin)
			case CompSRLs:
				spec.SRLs(c.Count, c.Length, c.ControlSets)
			case CompMemory:
				spec.Memory(c.Width, c.Depth)
			case CompDistributedMemory:
				spec.DistributedMemory(c.Width, c.Depth)
			case CompSumOfSquares:
				spec.SumOfSquares(c.Width, c.Terms)
			case CompLFSRs:
				spec.LFSRs(c.Count, c.Width, c.UseCarry, c.UseSRL)
			case CompLogic:
				spec.Logic(c.LUTs, c.Fanin, c.Depth)
			}
		}
		out.AddBlockType(spec)
	}
	for _, in := range d.Instances {
		if _, err := out.AddInstance(in.Block, in.Name); err != nil {
			return nil, &Error{Code: ErrInvalidOptions, Message: err.Error()}
		}
	}
	for _, n := range d.Nets {
		if err := out.Connect(n.From, n.To, n.Width); err != nil {
			return nil, &Error{Code: ErrInvalidOptions, Message: err.Error()}
		}
	}
	return out, nil
}

// InstanceCounts tallies how many instances use each block type of a
// custom design (nil for builtin designs — their flow reports its own).
func (d *DesignSpec) InstanceCounts() []int {
	if d.Builtin != "" || len(d.Blocks) == 0 {
		return nil
	}
	counts := make([]int, len(d.Blocks))
	for _, in := range d.Instances {
		if in.Block >= 0 && in.Block < len(counts) {
			counts[in.Block]++
		}
	}
	return counts
}

// Options converts the wire params into macroflow.StitchOptions. The
// caller attaches recorder and progress callback; semantic validation is
// the flow's StitchOptions.Validate.
func (p StitchParams) Options() (macroflow.StitchOptions, error) {
	check, err := macroflow.ParseCheckLevel(p.Check)
	if err != nil {
		return macroflow.StitchOptions{}, &Error{Code: ErrInvalidOptions, Message: err.Error()}
	}
	o := macroflow.StitchOptions{
		Seed:       p.Seed,
		TraceEvery: p.TraceEvery,
		Backend:    p.Backend,
		Check:      check,
	}
	if p.Anneal != nil {
		o.Anneal = *p.Anneal
	}
	if p.Analytic != nil {
		o.Analytic = *p.Analytic
	}
	return o, nil
}

// Options converts the wire params into macroflow.PartitionOptions.
// A nil receiver (partition absent from the request) converts to the
// zero value, which disables partitioning. Semantic validation is the
// flow's PartitionOptions.Validate.
func (p *PartitionParams) Options() macroflow.PartitionOptions {
	if p == nil {
		return macroflow.PartitionOptions{}
	}
	return macroflow.PartitionOptions{
		Shards:      p.Shards,
		CutPenalty:  p.CutPenalty,
		Refinements: p.Refinements,
	}
}

// Options converts the wire params into macroflow.ImplementOptions. The
// caller attaches the shared cache and recorder.
func (p ImplementParams) Options() (macroflow.ImplementOptions, error) {
	check, err := macroflow.ParseCheckLevel(p.Check)
	if err != nil {
		return macroflow.ImplementOptions{}, &Error{Code: ErrInvalidOptions, Message: err.Error()}
	}
	var strategy macroflow.SearchChoice
	switch p.Strategy {
	case "", "default":
		strategy = macroflow.SearchFlowDefault
	case "linear":
		strategy = macroflow.SearchForceLinear
	case "bisect":
		strategy = macroflow.SearchForceBisect
	default:
		return macroflow.ImplementOptions{}, &Error{Code: ErrInvalidOptions,
			Message: fmt.Sprintf("unknown search strategy %q (default, linear, bisect)", p.Strategy)}
	}
	return macroflow.ImplementOptions{
		Workers:  p.Workers,
		Strategy: strategy,
		Check:    check,
	}, nil
}

// ResultFromCompile maps a macroflow.CompileResult onto the wire form.
// The records are the library's own (see the aliases in api.go), so
// the wire result shares them with res rather than copying.
func ResultFromCompile(res *macroflow.CompileResult, skipStitch bool) *CompileResult {
	out := &CompileResult{
		Blocks:    res.Blocks,
		ToolRuns:  res.ToolRuns,
		CacheHits: res.CacheHits,
		Cache:     res.Cache,
		Partition: res.Partition,
		Verify:    res.Verify,
	}
	if !skipStitch {
		out.Stitch = &res.Stitch
	}
	return out
}

// ResultFromCNV maps a macroflow.CNVResult onto the wire form: the
// compile it wraps plus the cnvW1A1 tallies.
func ResultFromCNV(res *macroflow.CNVResult, skipStitch bool) *CompileResult {
	out := ResultFromCompile(&macroflow.CompileResult{
		Blocks:    res.Blocks,
		ToolRuns:  res.TotalToolRuns,
		CacheHits: res.CacheHits,
		Cache:     res.Cache,
		Stitch:    res.Stitch,
		Partition: res.Partition,
		Verify:    res.Verify,
	}, skipStitch)
	out.Instances = res.Instances
	out.FirstRunRate = res.FirstRunRate
	return out
}
