package macroflow

import (
	"fmt"

	"macroflow/internal/fabric"
	"macroflow/internal/partition"
	"macroflow/internal/stitch"
)

// PartitionOptions enables multi-region compilation: the device is
// carved into clock-region shards, spec blocks are assigned to shards
// by the cut-minimizing partitioner, and each shard is stitched in
// parallel with cross-shard nets pulling toward the remote shard
// (embed via CNVOptions.Partition / CompileOptions.Partition). The
// zero value disables partitioning and keeps single-device runs
// byte-identical to previous releases.
type PartitionOptions struct {
	// Shards is the number of clock-region bands to carve the device
	// into (0 disables partitioning; 1 is a valid degenerate run).
	Shards int
	// CutPenalty weighs the cross-shard cut bandwidth in the combined
	// objective (TotalCost = Σ shard wirelength + CutPenalty × cut
	// weight). 0 selects the default of 1.
	CutPenalty float64
	// Refinements bounds the partitioner's refinement passes (0 selects
	// the partitioner default of 8).
	Refinements int
}

// enabled reports whether partitioned compilation was requested.
func (o PartitionOptions) enabled() bool { return o.Shards > 0 }

// Validate rejects partition options the flow would refuse. RunCNV,
// Compile and the macroflowd request decoder all call it, so the CLI
// and the HTTP service reject bad options with the same messages.
func (o PartitionOptions) Validate() error {
	if o.Shards < 0 {
		return fmt.Errorf("macroflow: PartitionOptions.Shards must be >= 0 (got %d)", o.Shards)
	}
	if o.CutPenalty < 0 {
		return fmt.Errorf("macroflow: PartitionOptions.CutPenalty must be >= 0 (got %g)", o.CutPenalty)
	}
	if o.Refinements < 0 {
		return fmt.Errorf("macroflow: PartitionOptions.Refinements must be >= 0 (got %d)", o.Refinements)
	}
	return nil
}

// MemberReport is one fabric-set member's share of a partitioned run
// (apiv1.MemberSummary is this type; the JSON tags are the wire
// spelling).
type MemberReport struct {
	// Name identifies the member ("shard0", ...).
	Name string `json:"name"`
	// Instances counts the spec instances assigned to this member.
	Instances int `json:"instances"`
	// UsedSlices/CapSlices are the member's assigned slice demand and
	// slice capacity; Utilization is their ratio.
	UsedSlices  int     `json:"usedSlices"`
	CapSlices   int     `json:"capSlices"`
	Utilization float64 `json:"utilization"`
	// Stitch is the member's own stitching report (shard-local
	// coordinates; the parent-level origins are already merged into the
	// aggregate report's map).
	Stitch StitchReport `json:"stitch"`
}

// PartitionReport is the outcome of a partitioned compilation: the
// assignment quality plus one report per member
// (apiv1.PartitionSummary is this type).
type PartitionReport struct {
	// Backend echoes the partitioner that produced the assignment
	// ("greedy", the only one).
	Backend string `json:"backend"`
	// Members holds one report per fabric-set member, in member order.
	Members []MemberReport `json:"members"`
	// CutNets counts the nets whose endpoints landed in different
	// members; CutWeight is their summed weight.
	CutNets   int     `json:"cutNets"`
	CutWeight float64 `json:"cutWeight"`
	// CutPenalty is the effective cut weight multiplier; CutCost is
	// CutPenalty × CutWeight.
	CutPenalty float64 `json:"cutPenalty"`
	CutCost    float64 `json:"cutCost"`
	// TotalCost is the combined objective: the shards' summed final
	// wirelength plus CutCost.
	TotalCost float64 `json:"totalCost"`
}

// stitchPartitioned is the partitioned counterpart of stitchDesign:
// carve the flow's device into Shards clock-region bands, assign
// instances to bands with the cut-minimizing partitioner, stitch every
// band in parallel (cross-band nets anchoring toward the remote band's
// center), and reduce into one aggregate report plus the per-member
// breakdown. Bit-reproducible from (Seed, member set) regardless of
// GOMAXPROCS.
func (f *Flow) stitchPartitioned(prob *stitch.Problem, so StitchOptions, po PartitionOptions, parent *Span, vr *VerifyReport) (StitchReport, *PartitionReport, error) {
	set, err := fabric.Shards(f.dev, po.Shards)
	if err != nil {
		return StitchReport{}, nil, err
	}
	pp := partition.FromStitch(prob, set)
	assign, err := partition.Assign(pp, partition.Config{
		Seed:        so.Seed,
		Refinements: po.Refinements,
		Obs:         so.Obs,
		Span:        parent,
	})
	if err != nil {
		return StitchReport{}, nil, err
	}
	scfg := stitchConfig(so)
	scfg.Span = parent
	sres, err := stitch.RunSharded(prob, stitch.ShardsOf(set), assign.Member, scfg)
	if err != nil {
		return StitchReport{}, nil, err
	}
	verifyPartition(so.Check, prob, set, sres, assign.Cut, vr, so.Obs, parent)

	cutPenalty := po.CutPenalty
	if cutPenalty == 0 {
		cutPenalty = 1
	}
	pr := &PartitionReport{
		Backend:    string(partition.BackendGreedy),
		CutNets:    len(sres.CutNets),
		CutWeight:  sres.CutWeight,
		CutPenalty: cutPenalty,
		CutCost:    cutPenalty * sres.CutWeight,
	}
	pr.TotalCost = sres.FinalCost + pr.CutCost
	for k, m := range set.Members {
		mrep := MemberReport{
			Name:       m.Name,
			UsedSlices: assign.Util[k].Slices(),
			CapSlices:  m.Capacity.Slices(),
			Stitch:     newStitchReport(scfg.Backend, sres.Results[k]),
		}
		for _, a := range assign.Member {
			if a == k {
				mrep.Instances++
			}
		}
		if mrep.CapSlices > 0 {
			mrep.Utilization = float64(mrep.UsedSlices) / float64(mrep.CapSlices)
		}
		pr.Members = append(pr.Members, mrep)
	}

	// The aggregate report reads like a single-device stitch of the whole
	// design: global origins on the parent device, combined objective as
	// the headline cost.
	agg := StitchReport{
		Backend:   string(scfg.Backend),
		Placed:    sres.Placed,
		Unplaced:  sres.Unplaced,
		FinalCost: pr.TotalCost,
		Map:       renderStitchMap(f.dev, prob, sres.Origins),
	}
	for _, mrep := range pr.Members {
		agg.Iterations += mrep.Stitch.Iterations
		agg.IllegalMoves += mrep.Stitch.IllegalMoves
		agg.Exchanges += mrep.Stitch.Exchanges
		agg.GDIters += mrep.Stitch.GDIters
	}
	return agg, pr, nil
}
