// Package partition assigns the instances of a stitching problem to
// the members of a fabric set: capacity-feasible (every member's
// resource demand fits its capacity), complete (every instance gets
// exactly one member) and cut-minimizing (the summed weight of nets
// whose endpoints land in different members — the bandwidth that must
// cross device or shard boundaries).
//
// There is one backend: BackendGreedy places instances
// demand-descending onto the feasible member with the smallest cut
// increase and then runs deterministic single-instance refinement
// passes. The assignment is a pure function of the Problem. Backends
// stay addressed by name (Config.Backend, ParseBackend) so that a
// caller naming one this build does not have gets an error, not a
// different algorithm.
package partition

import (
	"fmt"
	"math"
	"sort"

	"macroflow/internal/fabric"
	"macroflow/internal/obs"
	"macroflow/internal/stitch"
)

// Backend selects the partitioning algorithm.
type Backend string

const (
	// BackendGreedy is the deterministic greedy + refinement
	// partitioner (the default).
	BackendGreedy Backend = "greedy"
)

// ParseBackend maps the flag spellings onto a Backend ("" = greedy).
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "", BackendGreedy:
		return BackendGreedy, nil
	}
	return BackendGreedy, fmt.Errorf("partition: unknown backend %q (want greedy)", s)
}

// Net is one weighted connection between two instances.
type Net struct {
	From, To int
	Weight   float64
}

// Problem is a partitioning task: member capacities (in fabric-set
// order), per-instance resource demands, and the net list the cut is
// computed from.
type Problem struct {
	Capacity []fabric.ResourceCount
	Demand   []fabric.ResourceCount
	Nets     []Net
}

// FromStitch derives a partition problem from a stitching problem and
// a fabric set: each instance demands the resources its block's
// footprint spans on the parent device.
func FromStitch(p *stitch.Problem, set *fabric.Set) *Problem {
	blockDemand := make([]fabric.ResourceCount, len(p.Blocks))
	for bi := range p.Blocks {
		blockDemand[bi] = BlockDemand(p.Dev, &p.Blocks[bi])
	}
	out := &Problem{
		Capacity: set.Capacities(),
		Demand:   make([]fabric.ResourceCount, len(p.Instances)),
	}
	for i, inst := range p.Instances {
		out.Demand[i] = blockDemand[inst.Block]
	}
	for _, n := range p.Nets {
		out.Nets = append(out.Nets, Net{From: n.From, To: n.To, Weight: n.Weight})
	}
	return out
}

// BlockDemand is the fast-path resource demand of one block: the
// resources its footprint consumes at its home position. BRAM/DSP rows
// count whole tiles rounded up — a span touching a tile claims it.
func BlockDemand(dev *fabric.Device, b *stitch.Block) fabric.ResourceCount {
	var rc fabric.ResourceCount
	for _, s := range b.Spans {
		x := b.HomeX + s.DX
		if x < 0 || x >= dev.NumCols() {
			continue
		}
		rows := s.Max - s.Min + 1
		if rows <= 0 {
			continue
		}
		switch dev.KindAt(x) {
		case fabric.ColCLBL:
			rc.SlicesL += rows * fabric.SlicesPerCLB
		case fabric.ColCLBM:
			rc.SlicesL += rows
			rc.SlicesM += rows
		case fabric.ColBRAM:
			rc.BRAM += (rows + fabric.BRAMRows - 1) / fabric.BRAMRows
		case fabric.ColDSP:
			rc.DSP += (rows + fabric.DSPRows - 1) / fabric.DSPRows * fabric.DSPPerTile
		}
	}
	return rc
}

// Config tunes the partitioner.
type Config struct {
	// Seed is accepted for every backend; the greedy one draws no
	// random numbers and ignores it.
	Seed int64
	// Backend names the algorithm ("" = greedy); Assign rejects a name
	// ParseBackend does not know.
	Backend Backend
	// Refinements bounds the greedy backend's refinement passes
	// (default 8; each pass sweeps all instances once and stops early
	// when a sweep moves nothing).
	Refinements int
	// Obs/Span carry the observability context (recording never
	// changes the assignment).
	Obs  *obs.Recorder
	Span *obs.Span
}

// Assignment is a complete, capacity-feasible instance→member map.
type Assignment struct {
	// Member[i] is the member index instance i is assigned to.
	Member []int
	// Cut is the summed weight of nets crossing members.
	Cut float64
	// Util[k] is member k's summed resource demand.
	Util []fabric.ResourceCount
}

// InfeasibleError reports an instance no member can take.
type InfeasibleError struct {
	Instance int
	Demand   fabric.ResourceCount
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("partition: no member can take instance %d (demand %+v)", e.Instance, e.Demand)
}

// ErrNoMembers rejects a problem with an empty member list.
var ErrNoMembers = fmt.Errorf("partition: no members to assign to")

// BadNetError reports a net whose endpoint is outside the instance
// range — a malformed problem, rejected before any assignment work.
type BadNetError struct {
	Net, Endpoint int
}

func (e *BadNetError) Error() string {
	return fmt.Sprintf("partition: net %d references instance %d outside the problem", e.Net, e.Endpoint)
}

// Assign partitions the problem. The result is a pure function of
// (Problem, Config.Refinements).
func Assign(p *Problem, cfg Config) (*Assignment, error) {
	if len(p.Capacity) == 0 {
		return nil, ErrNoMembers
	}
	for ni, n := range p.Nets {
		if n.From < 0 || n.From >= len(p.Demand) {
			return nil, &BadNetError{Net: ni, Endpoint: n.From}
		}
		if n.To < 0 || n.To >= len(p.Demand) {
			return nil, &BadNetError{Net: ni, Endpoint: n.To}
		}
	}
	be, err := ParseBackend(string(cfg.Backend))
	if err != nil {
		return nil, err
	}
	rec := cfg.Obs
	sp := obs.StartChild(rec, cfg.Span, "partition.assign",
		obs.String("backend", string(be)),
		obs.Int("members", len(p.Capacity)), obs.Int("instances", len(p.Demand)))
	defer sp.End()

	a, err := greedyAssign(p, cfg)
	if err != nil {
		return nil, err
	}
	rec.Add("partition.assignments", 1)
	sp.Set(obs.Float("cut", a.Cut))
	return a, nil
}

// fits reports whether member k can additionally take demand d.
func (p *Problem) fits(util []fabric.ResourceCount, k int, d fabric.ResourceCount) bool {
	return p.Capacity[k].Covers(util[k].Add(d))
}

// cutOf recomputes the cut weight of an assignment in net order.
func (p *Problem) cutOf(member []int) float64 {
	cut := 0.0
	for _, n := range p.Nets {
		if member[n.From] != member[n.To] {
			cut += n.Weight
		}
	}
	return cut
}

// utilOf tallies per-member demand.
func (p *Problem) utilOf(member []int) []fabric.ResourceCount {
	util := make([]fabric.ResourceCount, len(p.Capacity))
	for i, k := range member {
		util[k] = util[k].Add(p.Demand[i])
	}
	return util
}

// netsOf buckets net indices by endpoint.
func (p *Problem) netsOf() [][]int {
	out := make([][]int, len(p.Demand))
	for ni, n := range p.Nets {
		if n.From >= 0 && n.From < len(out) {
			out[n.From] = append(out[n.From], ni)
		}
		if n.To >= 0 && n.To < len(out) && n.To != n.From {
			out[n.To] = append(out[n.To], ni)
		}
	}
	return out
}

// cutDelta is the cut-weight change of moving instance i (currently in
// member[i], or unassigned when member[i] < 0) to member k: nets to
// assigned neighbors in k stop cutting, nets to assigned neighbors
// elsewhere start.
func (p *Problem) cutDelta(member []int, nets [][]int, i, k int) float64 {
	delta := 0.0
	cur := member[i]
	for _, ni := range nets[i] {
		n := &p.Nets[ni]
		o := n.To
		if o == i {
			o = n.From
		}
		if o == i || member[o] < 0 {
			continue
		}
		wasCut := cur >= 0 && member[o] != cur
		isCut := member[o] != k
		if isCut && !wasCut {
			delta += n.Weight
		} else if !isCut && wasCut {
			delta -= n.Weight
		}
	}
	return delta
}

// demandOrder returns instance indices sorted demand-descending (total
// slices, then BRAM+DSP, then index) — the bin-packing order the
// construction places in.
func (p *Problem) demandOrder() []int {
	order := make([]int, len(p.Demand))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := p.Demand[order[a]], p.Demand[order[b]]
		if da.Slices() != db.Slices() {
			return da.Slices() > db.Slices()
		}
		if da.BRAM+da.DSP != db.BRAM+db.DSP {
			return da.BRAM+da.DSP > db.BRAM+db.DSP
		}
		return order[a] < order[b]
	})
	return order
}

// construct places instances demand-descending, each onto the
// feasible member with the lowest cut increase (ties: lowest member
// index).
func (p *Problem) construct() ([]int, error) {
	member := make([]int, len(p.Demand))
	for i := range member {
		member[i] = -1
	}
	util := make([]fabric.ResourceCount, len(p.Capacity))
	nets := p.netsOf()
	for _, i := range p.demandOrder() {
		best, bestDelta := -1, math.Inf(1)
		for k := range p.Capacity {
			if !p.fits(util, k, p.Demand[i]) {
				continue
			}
			if d := p.cutDelta(member, nets, i, k); d < bestDelta {
				best, bestDelta = k, d
			}
		}
		if best < 0 {
			return nil, &InfeasibleError{Instance: i, Demand: p.Demand[i]}
		}
		member[i] = best
		util[best] = util[best].Add(p.Demand[i])
	}
	return member, nil
}

// refine sweeps all instances in index order, moving each to the
// feasible member with the largest cut reduction (strict improvement
// only). Returns whether anything moved.
func (p *Problem) refine(member []int, util []fabric.ResourceCount, nets [][]int) bool {
	moved := false
	for i := range member {
		cur := member[i]
		best, bestDelta := cur, 0.0
		for k := range p.Capacity {
			if k == cur {
				continue
			}
			if !p.fits(util, k, p.Demand[i]) {
				continue
			}
			if d := p.cutDelta(member, nets, i, k); d < bestDelta {
				best, bestDelta = k, d
			}
		}
		if best != cur {
			util[cur].SlicesL -= p.Demand[i].SlicesL
			util[cur].SlicesM -= p.Demand[i].SlicesM
			util[cur].BRAM -= p.Demand[i].BRAM
			util[cur].DSP -= p.Demand[i].DSP
			member[i] = best
			util[best] = util[best].Add(p.Demand[i])
			moved = true
		}
	}
	return moved
}

// greedyAssign is the backend: demand-descending construction plus
// bounded refinement passes.
func greedyAssign(p *Problem, cfg Config) (*Assignment, error) {
	member, err := p.construct()
	if err != nil {
		return nil, err
	}
	passes := cfg.Refinements
	if passes <= 0 {
		passes = 8
	}
	util := p.utilOf(member)
	nets := p.netsOf()
	for pass := 0; pass < passes; pass++ {
		if !p.refine(member, util, nets) {
			break
		}
	}
	return &Assignment{Member: member, Cut: p.cutOf(member), Util: util}, nil
}
