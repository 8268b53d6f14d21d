// Sharded stitching: run one stitch per fabric-set member, in parallel,
// over the sub-problems a partition assignment induces. Each shard
// stitches its own instances on its own device view; cross-shard nets
// become Anchors — the remote endpoint frozen at its shard's center —
// so every shard co-optimizes intra-shard wirelength and cross-shard
// cut with the ordinary solver machinery.
//
// Determinism contract: the sub-problems are built in member order by
// pure arithmetic, each shard runs with a seed derived only from
// (Config.Seed, member index) and a budget derived only from the
// instance split, and the reduction after the join walks members in
// order — so the result depends on (Seed, member set, assignment)
// alone, never on GOMAXPROCS or shard finish order.
package stitch

import (
	"fmt"
	"sync"

	"macroflow/internal/fabric"
	"macroflow/internal/obs"
)

// shardSeedStride separates the per-shard seeds from each other and
// from the chain and analytic strides already in use.
const shardSeedStride = 15485863

// Shard is one member target of a sharded run: a device view plus the
// parent row of its local row 0 (see fabric.Member).
type Shard struct {
	Name      string
	Dev       *fabric.Device
	RowOffset int
}

// ShardedResult is the outcome of a sharded stitch.
type ShardedResult struct {
	// Results holds one solver Result per shard, in member order, with
	// shard-local origins.
	Results []*Result
	// Problems are the per-shard sub-problems the results were solved
	// on (anchors included) — what a verifier audits shard by shard.
	Problems []*Problem
	// Assign echoes the instance→member assignment the run used.
	Assign []int
	// Origins are the global placements in parent-device coordinates
	// (shard-local Y plus the member's RowOffset), indexed like
	// Problem.Instances.
	Origins []Origin
	// Placed/Unplaced sum over the shards.
	Placed, Unplaced int
	// FinalCost sums the per-shard final costs (intra-shard wirelength
	// plus each shard's anchor pull; no unplaced penalties).
	FinalCost float64
	// Iterations sums the executed moves over all shards.
	Iterations int
	// CutNets indexes the nets whose endpoints landed in different
	// members; CutWeight is their summed weight — the partition's cut
	// bandwidth, independent of placement.
	CutNets   []int
	CutWeight float64
}

// buildShardProblems splits p into one sub-problem per shard under the
// assignment: instances keep global order within their shard,
// intra-shard nets are remapped to local indices, and each cross-shard
// net contributes one Anchor per endpoint at the remote shard's center
// (in the local shard's coordinates — possibly off-device; anchors are
// arithmetic, not placement targets). Returns the sub-problems, the
// local→global index maps, and the cut net indices.
func buildShardProblems(p *Problem, shards []Shard, assign []int) ([]*Problem, [][]int, []int) {
	k := len(shards)
	subs := make([]*Problem, k)
	toGlobal := make([][]int, k)
	toLocal := make([]int, len(p.Instances))
	for s := range subs {
		subs[s] = &Problem{Dev: shards[s].Dev, Blocks: p.Blocks}
	}
	for i, inst := range p.Instances {
		s := assign[i]
		toLocal[i] = len(subs[s].Instances)
		subs[s].Instances = append(subs[s].Instances, inst)
		toGlobal[s] = append(toGlobal[s], i)
	}
	// The anchor target for a net cut between shards a and b, seen from
	// a: the center of b's band, translated into a's local rows.
	center := func(local, remote int) (float64, float64) {
		x := float64(shards[remote].Dev.NumCols()) / 2
		parentY := float64(shards[remote].RowOffset) + float64(shards[remote].Dev.Rows)/2
		return x, parentY - float64(shards[local].RowOffset)
	}
	var cut []int
	for ni, n := range p.Nets {
		sf, st := assign[n.From], assign[n.To]
		if sf == st {
			subs[sf].Nets = append(subs[sf].Nets, Net{
				From: toLocal[n.From], To: toLocal[n.To], Weight: n.Weight,
			})
			continue
		}
		cut = append(cut, ni)
		fx, fy := center(sf, st)
		subs[sf].Anchors = append(subs[sf].Anchors, Anchor{
			Inst: toLocal[n.From], X: fx, Y: fy, Weight: n.Weight,
		})
		tx, ty := center(st, sf)
		subs[st].Anchors = append(subs[st].Anchors, Anchor{
			Inst: toLocal[n.To], X: tx, Y: ty, Weight: n.Weight,
		})
	}
	return subs, toGlobal, cut
}

// RunSharded stitches p across the shards under the given
// instance→member assignment, one parallel solver run per shard with
// an ordered reduction after the join.
func RunSharded(p *Problem, shards []Shard, assign []int, cfg Config) (*ShardedResult, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("stitch: RunSharded needs at least one shard")
	}
	if len(assign) != len(p.Instances) {
		return nil, fmt.Errorf("stitch: assignment covers %d of %d instances",
			len(assign), len(p.Instances))
	}
	for i, s := range assign {
		if s < 0 || s >= len(shards) {
			return nil, fmt.Errorf("stitch: instance %d assigned to member %d of %d",
				i, s, len(shards))
		}
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 200000
	}
	rec := cfg.Obs
	runSp := obs.StartChild(rec, cfg.Span, "stitch.sharded",
		obs.Int("shards", len(shards)), obs.Int("iterations", cfg.Iterations))

	subs, toGlobal, cut := buildShardProblems(p, shards, assign)
	results := make([]*Result, len(shards))
	spans := make([]*obs.Span, len(shards))
	var wg sync.WaitGroup
	for s := range shards {
		sub := cfg
		// Per-shard seed and a budget proportional to the shard's share
		// of the instances (never zero, so every shard anneals).
		sub.Seed = cfg.Seed + shardSeedStride*int64(s+1)
		sub.Iterations = cfg.Iterations * len(subs[s].Instances) / len(p.Instances)
		if sub.Iterations < 1 {
			sub.Iterations = 1
		}
		// Shards run silently: progress callbacks must never fire
		// concurrently, so only the reduced result is observable.
		sub.Progress = nil
		spans[s] = obs.StartChild(rec, runSp, "stitch.shard",
			obs.Int("member", s), obs.String("member_name", shards[s].Name),
			obs.Int("instances", len(subs[s].Instances)),
			obs.Int("iterations", sub.Iterations))
		sub.Span = spans[s]
		wg.Add(1)
		go func(s int, sub Config) {
			defer wg.Done()
			results[s] = Run(subs[s], sub)
		}(s, sub)
	}
	wg.Wait()

	// Ordered reduction: every readout below walks shards in member
	// order, so the aggregate is independent of finish order.
	out := &ShardedResult{
		Results:  results,
		Problems: subs,
		Assign:   append([]int(nil), assign...),
		Origins:  make([]Origin, len(p.Instances)),
		CutNets:  cut,
	}
	for _, ni := range cut {
		out.CutWeight += p.Nets[ni].Weight
	}
	for s, r := range results {
		out.FinalCost += r.FinalCost
		out.Placed += r.Placed
		out.Unplaced += r.Unplaced
		out.Iterations += r.Iterations
		for li, o := range r.Origins {
			gi := toGlobal[s][li]
			if o.Placed {
				out.Origins[gi] = Origin{X: o.X, Y: o.Y + shards[s].RowOffset, Placed: true}
			}
		}
		spans[s].Set(obs.Float("final_cost", r.FinalCost),
			obs.Int("unplaced", r.Unplaced))
		spans[s].End()
	}
	rec.Add("stitch.sharded.runs", int64(len(shards)))
	runSp.Set(obs.Float("final_cost", out.FinalCost),
		obs.Int("cut_nets", len(cut)), obs.Float("cut_weight", out.CutWeight),
		obs.Int("unplaced", out.Unplaced))
	runSp.End()
	return out, nil
}

// ShardsOf converts a fabric set's members into stitch shards.
func ShardsOf(set *fabric.Set) []Shard {
	out := make([]Shard, len(set.Members))
	for i, m := range set.Members {
		out[i] = Shard{Name: m.Name, Dev: m.Dev, RowOffset: m.RowOffset}
	}
	return out
}
