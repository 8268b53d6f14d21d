package stitch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sync"
	"testing"

	"macroflow/internal/cnv"
	"macroflow/internal/fabric"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/rtlgen"
	"macroflow/internal/synth"
)

// cnvMinCFProblem is the paper's stitching task: every cnvW1A1 block
// implemented at its minimal CF on the xc7z020 (the linear sweep of the
// flow's min-CF mode), 175 instances on a full device.
var (
	cnvProblemOnce sync.Once
	cnvProblem     *Problem
)

func cnvMinCFProblem(tb testing.TB) *Problem {
	tb.Helper()
	cnvProblemOnce.Do(func() {
		dev := fabric.XC7Z020()
		d := cnv.CNVW1A1()
		cfg := pblock.DefaultConfig()
		search := pblock.SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}
		prob := &Problem{Dev: dev}
		for ti := range d.Types {
			m, err := d.Module(ti)
			if err != nil {
				panic(err)
			}
			res, err := pblock.MinCF(dev, m, place.QuickPlace(m), search, cfg)
			if err != nil {
				panic(err)
			}
			prob.Blocks = append(prob.Blocks, NewBlock(d.Types[ti].Name, res.Impl.Placement))
		}
		for ii := range d.Instances {
			prob.Instances = append(prob.Instances, Instance{
				Name: d.Instances[ii].Name, Block: d.Instances[ii].Type,
			})
		}
		for _, n := range d.Nets {
			prob.Nets = append(prob.Nets, Net{From: n.From, To: n.To, Weight: float64(n.Width) / 16})
		}
		cnvProblem = prob
	})
	return cnvProblem
}

// pipeline12Problem is the design-space-exploration shape of
// examples/incremental and the daemon's pipeline jobs: source -> 12
// workers -> sink on the xc7z020, each block at its minimal CF. Twelve
// of fourteen instances share one block, so most swap proposals pair
// two instances of the same block.
var (
	pipelineOnce    sync.Once
	pipelineProblem *Problem
)

func pipeline12Problem(tb testing.TB) *Problem {
	tb.Helper()
	pipelineOnce.Do(func() {
		dev := fabric.XC7Z020()
		specs := []rtlgen.Spec{
			{Name: "source", Components: []rtlgen.Component{
				rtlgen.RandomLogic{LUTs: 120, Fanin: 4, Depth: 3, Seed: 1},
				rtlgen.ShiftRegs{Count: 4, Length: 8, ControlSets: 1, Fanin: 2, NoSRL: true}}},
			{Name: "worker_simd32", Components: []rtlgen.Component{
				rtlgen.RandomLogic{LUTs: 128, Fanin: 5, Depth: 3, Seed: 2},
				rtlgen.SumOfSquares{Width: 8, Terms: 4},
				rtlgen.ShiftRegs{Count: 8, Length: 16, ControlSets: 2, Fanin: 2, NoSRL: true},
				rtlgen.LUTMemory{Width: 8, Depth: 64}}},
			{Name: "sink", Components: []rtlgen.Component{
				rtlgen.RandomLogic{LUTs: 90, Fanin: 4, Depth: 2, Seed: 3},
				rtlgen.SumOfSquares{Width: 6, Terms: 1}}},
		}
		search := pblock.SearchConfig{Start: 0.9, Step: 0.02, Max: 3.0}
		prob := &Problem{Dev: dev}
		for _, spec := range specs {
			m, err := synth.Elaborate(spec)
			if err != nil {
				panic(err)
			}
			if _, err := synth.Optimize(m); err != nil {
				panic(err)
			}
			res, err := pblock.MinCF(dev, m, place.QuickPlace(m), search, pblock.DefaultConfig())
			if err != nil {
				panic(err)
			}
			prob.Blocks = append(prob.Blocks, NewBlock(spec.Name, res.Impl.Placement))
		}
		prob.Instances = []Instance{{Name: "source", Block: 0}, {Name: "sink", Block: 2}}
		for i := 0; i < 12; i++ {
			prob.Instances = append(prob.Instances, Instance{Name: fmt.Sprintf("worker_%d", i), Block: 1})
			prob.Nets = append(prob.Nets, Net{From: 0, To: 2 + i, Weight: 2}, Net{From: 2 + i, To: 1, Weight: 1})
		}
		pipelineProblem = prob
	})
	return pipelineProblem
}

// trajectoryHasher folds the move-for-move observable outcome of a run
// into one SHA-256: ints as little-endian int64, floats by bit pattern.
type trajectoryHasher struct {
	h   hash.Hash
	buf [8]byte
}

func (th *trajectoryHasher) int(v int) {
	binary.LittleEndian.PutUint64(th.buf[:], uint64(int64(v)))
	th.h.Write(th.buf[:])
}

func (th *trajectoryHasher) float(v float64) {
	binary.LittleEndian.PutUint64(th.buf[:], math.Float64bits(v))
	th.h.Write(th.buf[:])
}

func (th *trajectoryHasher) origins(os []Origin) {
	th.int(len(os))
	for _, o := range os {
		placed := 0
		if o.Placed {
			placed = 1
		}
		th.int(o.X)
		th.int(o.Y)
		th.int(placed)
	}
}

func (th *trajectoryHasher) result(r *Result) {
	th.origins(r.Origins)
	th.float(r.FinalCost)
	th.int(r.IllegalMoves)
	th.int(r.ConvergenceIter)
	th.int(len(r.Chains))
	for _, c := range r.Chains {
		th.int(c.Accepts)
		th.int(c.Moves)
	}
	th.int(r.Exchanges)
	th.int(len(r.CostTrace))
	for _, s := range r.CostTrace {
		th.int(s.Iter)
		th.float(s.Cost)
	}
}

func (th *trajectoryHasher) sum() string { return hex.EncodeToString(th.h.Sum(nil)) }

func trajectoryDigest(r *Result) string {
	th := &trajectoryHasher{h: sha256.New()}
	th.result(r)
	return th.sum()
}

// TestStitchTrajectoryPinned pins the stitcher's trajectory, not just
// its determinism: the literals were recorded on the commit before the
// legality kernel was rewritten, and cover origins, final cost, illegal
// moves, convergence iteration, per-chain accepts/moves, exchanges and
// the whole cost trace. Like TestModuleHashPinned, any change to what
// the stitcher computes — a move accepted that used to be rejected, a
// different first-fit origin, one ulp in the descent — must show up
// here as a visible diff.
func TestStitchTrajectoryPinned(t *testing.T) {
	type pin struct {
		name string
		run  func() string
	}
	var pins []pin
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		pins = append(pins, pin{
			name: fmt.Sprintf("cnv/anneal/seed%d", seed),
			run: func() string {
				cfg := DefaultConfig()
				cfg.Seed = seed
				return trajectoryDigest(Run(cnvMinCFProblem(t), cfg))
			},
		})
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		pins = append(pins, pin{
			name: fmt.Sprintf("pipeline12/anneal/seed%d", seed),
			run: func() string {
				cfg := DefaultConfig()
				cfg.Seed = seed
				cfg.Iterations = 40000
				return trajectoryDigest(Run(pipeline12Problem(t), cfg))
			},
		})
	}
	for s := int64(1); s <= 3; s++ {
		s := s
		p := Synthetic(fabric.XC7Z045(), 10, s)
		for _, be := range []Backend{BackendHybrid, BackendAnalytic} {
			be := be
			name := fmt.Sprintf("synthetic10x/%s/seed%d", be, s)
			pins = append(pins, pin{
				name: name,
				run: func() string {
					cfg := DefaultConfig()
					cfg.Seed = s
					cfg.Iterations = 40000
					cfg.Chains = 4
					cfg.Backend = be
					return trajectoryDigest(Run(p, cfg))
				},
			})
		}
		// The sharded pins run both backends that differ inside a shard:
		// RunSharded is the only caller that feeds Anchors into the
		// analytic descent, so sharded-hybrid pins the anchored gradient.
		// Its literals were recorded on the tiled, fanned-out descent,
		// before the descent became one loop on the calling goroutine.
		for _, be := range []Backend{BackendAnneal, BackendHybrid} {
			be := be
			name := fmt.Sprintf("synthetic10x/sharded/seed%d", s)
			if be == BackendHybrid {
				name = fmt.Sprintf("synthetic10x/sharded-hybrid/seed%d", s)
			}
			pins = append(pins, pin{
				name: name,
				run: func() string {
					set, err := fabric.Shards(fabric.XC7Z045(), 2)
					if err != nil {
						t.Fatal(err)
					}
					assign := make([]int, len(p.Instances))
					for i := range assign {
						assign[i] = i % 2
					}
					cfg := DefaultConfig()
					cfg.Seed = s
					cfg.Iterations = 40000
					cfg.Chains = 4
					cfg.Backend = be
					sr, err := RunSharded(p, ShardsOf(set), assign, cfg)
					if err != nil {
						t.Fatal(err)
					}
					th := &trajectoryHasher{h: sha256.New()}
					th.origins(sr.Origins)
					th.float(sr.FinalCost)
					for _, r := range sr.Results {
						th.result(r)
					}
					return th.sum()
				},
			})
		}
	}
	for _, p := range pins {
		if got, want := p.run(), pinnedTrajectories[p.name]; got != want {
			t.Errorf("%s: trajectory digest\n got  %s\n want %s", p.name, got, want)
		}
	}
}

// pinnedTrajectories holds the SHA-256 trajectory digests recorded on
// the parent of the legality-kernel rewrite.
var pinnedTrajectories = map[string]string{
	"cnv/anneal/seed1": "bca4598c4f2549bb506ad826ad1ed27692b137973d6de861b43c4973a59dc780",
	"cnv/anneal/seed2": "57d8d82b291a2dbeb8197155391ab98bbca956dbc614330d3d7b950e2fcca54f",
	"cnv/anneal/seed3": "2cd4a2fce45a2060b247361ec09a4344381fa6ad3111cb8c329bbc42222d117e",
	// Recorded before the same-block swap skipped the bitmap.
	"pipeline12/anneal/seed1":     "35dcb34b0e7017ba3596059b4fd1d8bc822464ca9b5d79427cac3ee5501493a2",
	"pipeline12/anneal/seed2":     "108a0464651edbe0dfab8a040696d358c411cfde77524647438605657a1bb0b7",
	"pipeline12/anneal/seed3":     "80c34a0b5ab3a9274f5e8f788cd3edc5214a00fc64f8e19217690ef6179a2121",
	"synthetic10x/hybrid/seed1":   "72d909218054876577067a76f7916c1808940e7ae36491aa293648a3fff680df",
	"synthetic10x/analytic/seed1": "e7e3db8ab9083c1579def0b2b58e8754dee28e14d64c1617debe32c8be157d11",
	"synthetic10x/sharded/seed1":  "caa301f35cc104f5d257c588a8076b18dfe9dd18de8a5ccbaeaec7913a95a62f",
	"synthetic10x/hybrid/seed2":   "bf05b99edce39858db711b63eb3a21ceb4ad3e819a72328eb798f07d155be960",
	"synthetic10x/analytic/seed2": "843421f2823d62b041ab9a1ad147da841a7255634f16a887598dffa4a7b5d34d",
	"synthetic10x/sharded/seed2":  "980d6f229652af77abf93d37e5db20f92e375fc995fb781578d51211d2bfa0a7",
	"synthetic10x/hybrid/seed3":   "0518a5a1e5a6b9bd633b1917e914308ba76b15a1e5e92055d6c6b9f3415d0e60",
	"synthetic10x/analytic/seed3": "d28f13d03f0e221ca217d7b437b73a1f30c0c5f360a476addcd6926fab66e834",
	"synthetic10x/sharded/seed3":  "d26edfe3d3b6f6eb7bc0b92492d06b04343e454f79b3a69f6efd291ea82eaff7",
	// Recorded on the tiled descent, before it became one loop.
	"synthetic10x/sharded-hybrid/seed1": "8de4033fe523260d70d959e81aecb31f1b2056bfa1ae8332645c2fb278494f06",
	"synthetic10x/sharded-hybrid/seed2": "9615c9141379d029d9d2072f94d56acec226b6a5a27d8644671281a923ba37d2",
	"synthetic10x/sharded-hybrid/seed3": "daed460ef34a3c2ea189f3392117f02b4c8b642a09a3634d40a84e86bf4341ab",
}
