package main

// adapter.go is the only file of the harness that calls into the
// macroflow library and its internal/* layers. Everything else works on
// the plain types declared here, so a refactor of the library (ROADMAP
// items 2-3) touches this one file. It uses only the structured option
// fields, never the deprecated flat aliases, and addresses solver
// backends by string name.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"macroflow"
	apiv1 "macroflow/api/v1"
	"macroflow/internal/cnv"
	"macroflow/internal/dataset"
	"macroflow/internal/fabric"
	"macroflow/internal/implcache"
	"macroflow/internal/ml"
	"macroflow/internal/netlist"
	"macroflow/internal/oracle"
	"macroflow/internal/partition"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/route"
	"macroflow/internal/stitch"
	"macroflow/internal/synth"
)

// The cnvW1A1 compile every cnv workload and probe runs: the device,
// search window and anneal budget rwflow and the daemon use.
const (
	cnvDevice       = "xc7z020"
	searchStart     = 0.5
	searchStep      = 0.02
	searchMax       = 3.0
	cnvMoves        = 200000
	unplacedPenalty = 2000 // the stitcher's own per-instance penalty
)

func cnvSearch() pblock.SearchConfig {
	return pblock.SearchConfig{Start: searchStart, Step: searchStep, Max: searchMax}
}

// digest is the deterministic outcome of one cnvW1A1 compile. Every
// measured op must reproduce the digest its stitch seed got in the
// audited reference run.
type digest struct {
	CFs       []float64
	ToolRuns  int
	Placed    int
	Unplaced  int
	FinalCost float64
}

// sameResult compares everything but ToolRuns (a cache-served compile
// runs no tool but must produce the cold compile's design).
func (d digest) sameResult(o digest) bool {
	if len(d.CFs) != len(o.CFs) || d.Placed != o.Placed || d.Unplaced != o.Unplaced || d.FinalCost != o.FinalCost {
		return false
	}
	for i := range d.CFs {
		if d.CFs[i] != o.CFs[i] {
			return false
		}
	}
	return true
}

// cost is the stitcher's own objective.
func (d digest) cost() float64 { return stitchObjective(d.FinalCost, d.Unplaced) }

func stitchObjective(finalCost float64, unplaced int) float64 {
	return finalCost + unplacedPenalty*float64(unplaced)
}

// blockCache hides the library's cache type from the rest of the
// harness.
type blockCache struct{ c *macroflow.BlockCache }

func newMemCache() blockCache { return blockCache{macroflow.NewBlockCache()} }

func openDiskCache(dir string) (blockCache, error) {
	c, err := macroflow.NewPersistentBlockCache(dir)
	return blockCache{c}, err
}

// cnvOut is one end-to-end cnvW1A1 compile through the public API.
type cnvOut struct {
	digest
	MemHits, DiskHits  int
	Checks, Violations int
	// BlockRuns sums the blocks' own tool runs, cache-served or not:
	// what the compile costs when no cache helps.
	BlockRuns int
	res       *macroflow.CNVResult
}

// cnvCompile is the op of the cnv workloads: NewFlow, SetSearch, RunCNV
// with the linear sweep. audit switches the oracle on for the stitch
// (every reference) and, with auditBlocks, for every block as well.
func cnvCompile(stitchSeed int64, cache blockCache, audit, auditBlocks bool) (cnvOut, error) {
	flow, err := macroflow.NewFlow(cnvDevice)
	if err != nil {
		return cnvOut{}, err
	}
	flow.SetSearch(searchStart, searchStep, searchMax)
	opts := macroflow.CNVOptions{
		Stitch: macroflow.StitchOptions{
			Seed:   stitchSeed,
			Anneal: macroflow.AnnealOptions{Iterations: cnvMoves},
		},
		Implement: macroflow.ImplementOptions{Cache: cache.c},
	}
	if audit {
		opts.Stitch.Check = macroflow.CheckFull
	}
	if auditBlocks {
		opts.Implement.Check = macroflow.CheckFull
	}
	res, err := flow.RunCNV(macroflow.MinSweepCF(), opts)
	if err != nil {
		return cnvOut{}, err
	}
	out := cnvOut{res: res, MemHits: res.Cache.MemHits, DiskHits: res.Cache.DiskHits}
	out.ToolRuns = res.TotalToolRuns
	out.Placed, out.Unplaced, out.FinalCost = res.Stitch.Placed, res.Stitch.Unplaced, res.Stitch.FinalCost
	for _, b := range res.Blocks {
		out.CFs = append(out.CFs, b.CF)
		out.BlockRuns += b.ToolRuns
	}
	if res.Verify != nil {
		out.Checks, out.Violations = res.Verify.Checks, len(res.Verify.Violations)
	}
	return out, nil
}

// --- decomposed replay ----------------------------------------------------

// gridCF is the i-th CF of the linear sweep (the 0.02 grid).
func gridCF(i int) float64 {
	return math.Round((searchStart+float64(i)*searchStep)*50) / 50
}

// sweep is the linear minimal-CF sweep spelled out over the layers'
// public functions: pblock.Build, place.Place and route.Route per grid
// CF until the first feasible one. span, when non-nil, opens a child
// span around each place and route call.
func sweep(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, cfg pblock.Config, span func(name string) func()) (pblock.SearchResult, sweepCounts, error) {
	var n sweepCounts
	for i := 0; ; i++ {
		cf := gridCF(i)
		if cf > searchMax+1e-9 {
			return pblock.SearchResult{ToolRuns: n.Attempted}, n, fmt.Errorf("no feasible CF for %s", m.Name)
		}
		n.Attempted++
		pb, err := pblock.Build(dev, rep, cf, cfg)
		if err != nil {
			return pblock.SearchResult{ToolRuns: n.Attempted}, n, err
		}
		done := span("place")
		pl, err := place.Place(dev, m, rep, pb.Rect, cfg.Place)
		done()
		if err != nil {
			continue
		}
		n.Placed++
		done = span("route")
		rr := route.Route(pl, cfg.Route)
		done()
		if !rr.Feasible {
			continue
		}
		n.Feasible++
		impl := &pblock.Implementation{PBlock: pb, Placement: pl, Route: rr}
		return pblock.SearchResult{CF: cf, Impl: impl, ToolRuns: n.Attempted}, n, nil
	}
}

// sweepCounts tallies the probes of a sweep: attempted place-and-route
// runs, those that placed, and those that also routed.
type sweepCounts struct{ Attempted, Placed, Feasible int }

func noSpan(string) func() { return func() {} }

// blockKey is the persistent cache's address of a minsweep block — the
// key RunCNV stores under, rebuilt from the layers' public
// fingerprints.
func blockKey(dev *fabric.Device, m *netlist.Module, cfg pblock.Config) string {
	return implcache.Key("block", dev.Name, implcache.ModuleHash(m), "minsweep",
		pblock.SearchFingerprint(cnvSearch()), pblock.ConfigFingerprint(cfg))
}

// cnvReplay performs the cnv compile by calling the layers' public
// functions in pipeline order, recording a span around each call:
// cnv.Design.Module, place.QuickPlace, then the linear sweep (or, with
// a cache directory, implcache.Get + ImplRecord.Rebuild), then
// stitch.NewBlock / stitch.Run. Blocks run on GOMAXPROCS lanes like the
// real flow. It must arrive at the digest of the end-to-end op.
func cnvReplay(tr *tracer, op int, stitchSeed int64, cacheDir string) (digest, error) {
	root := tr.start(op, -1, "op")
	defer tr.end(root)
	dev := fabric.XC7Z020()
	design := cnv.CNVW1A1()
	cfg := pblock.DefaultConfig()
	var disk *implcache.Cache
	if cacheDir != "" {
		var err error
		if disk, err = implcache.Open(cacheDir); err != nil {
			return digest{}, err
		}
	}
	n := len(design.Types)
	srs := make([]pblock.SearchResult, n)
	errs := make([]error, n)
	lanes := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for ti := 0; ti < n; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			lanes <- struct{}{}
			defer func() { <-lanes }()
			blk := tr.start(op, root, "block")
			defer tr.end(blk)
			child := func(parent int) func(string) func() {
				return func(name string) func() {
					id := tr.start(op, parent, name)
					return func() { tr.end(id) }
				}
			}
			done := child(blk)("synth")
			m, err := design.Module(ti)
			done()
			if err != nil {
				errs[ti] = err
				return
			}
			done = child(blk)("quickplace")
			rep := place.QuickPlace(m)
			done()
			if disk != nil {
				done = child(blk)("cache")
				defer done()
				var rec pblock.ImplRecord
				if !disk.Get(blockKey(dev, m, cfg), &rec) {
					errs[ti] = fmt.Errorf("replay: block %s missing from the cache", m.Name)
					return
				}
				sr, rerr, ok := rec.Rebuild(dev, m, rep, cnvSearch(), cfg)
				if !ok || rerr != nil {
					errs[ti] = fmt.Errorf("replay: block %s did not rebuild (%v)", m.Name, rerr)
					return
				}
				sr.ToolRuns = 0 // served from the cache: no tool ran
				srs[ti] = sr
				return
			}
			search := tr.start(op, blk, "search")
			srs[ti], _, errs[ti] = sweep(dev, m, rep, cfg, child(search))
			tr.end(search)
		}(ti)
	}
	wg.Wait()
	var d digest
	impls := make([]*pblock.Implementation, n)
	for ti := range srs {
		if errs[ti] != nil {
			return digest{}, errs[ti]
		}
		d.CFs = append(d.CFs, srs[ti].CF)
		d.ToolRuns += srs[ti].ToolRuns
		impls[ti] = srs[ti].Impl
	}
	st := tr.start(op, root, "stitch")
	scfg := stitch.DefaultConfig()
	scfg.Seed = stitchSeed
	scfg.Iterations = cnvMoves
	res := stitch.Run(cnvStitchProblem(dev, design, impls), scfg)
	tr.end(st)
	d.Placed, d.Unplaced, d.FinalCost = res.Placed, res.Unplaced, res.FinalCost
	return d, nil
}

// cnvStitchProblem assembles the 175-instance stitching task from the
// implemented blocks, as the flow does.
func cnvStitchProblem(dev *fabric.Device, d *cnv.Design, impls []*pblock.Implementation) *stitch.Problem {
	prob := &stitch.Problem{Dev: dev}
	for ti := range d.Types {
		prob.Blocks = append(prob.Blocks, stitch.NewBlock(d.Types[ti].Name, impls[ti].Placement))
	}
	for _, in := range d.Instances {
		prob.Instances = append(prob.Instances, stitch.Instance{Name: in.Name, Block: in.Type})
	}
	for _, n := range d.Nets {
		prob.Nets = append(prob.Nets, stitch.Net{From: n.From, To: n.To, Weight: float64(n.Width) / 16})
	}
	return prob
}

// --- layer probe fixture: the 74 cnvW1A1 block modules --------------------

// fixture holds the fixed inputs of the layer probes: every cnvW1A1
// block module, its shape report and its minimal-CF implementation.
type fixture struct {
	dev    *fabric.Device
	cfg    pblock.Config
	design *cnv.Design
	mods   []*netlist.Module
	reps   []place.ShapeReport
	srs    []pblock.SearchResult
	// below[i] is the PBlock one grid step under block i's minimal CF
	// (ok false when the minimal CF is the window start).
	below   []pblock.PBlock
	belowOK []bool
	counts  sweepCounts
}

// newFixture elaborates the modules; withImpls also sweeps each to its
// minimal CF (about a second).
func newFixture(withImpls bool) (*fixture, error) {
	f := &fixture{dev: fabric.XC7Z020(), cfg: pblock.DefaultConfig(), design: cnv.CNVW1A1()}
	for ti := range f.design.Types {
		m, err := f.design.Module(ti)
		if err != nil {
			return nil, err
		}
		f.mods = append(f.mods, m)
		f.reps = append(f.reps, place.QuickPlace(m))
	}
	if !withImpls {
		return f, nil
	}
	for i, m := range f.mods {
		sr, n, err := sweep(f.dev, m, f.reps[i], f.cfg, noSpan)
		if err != nil {
			return nil, err
		}
		f.srs = append(f.srs, sr)
		f.counts.Attempted += n.Attempted
		f.counts.Placed += n.Placed
		f.counts.Feasible += n.Feasible
		pb, berr := pblock.Build(f.dev, f.reps[i], sr.CF-searchStep, f.cfg)
		f.below = append(f.below, pb)
		f.belowOK = append(f.belowOK, sr.ToolRuns > 1 && berr == nil)
	}
	return f, nil
}

func (f *fixture) n() int { return len(f.mods) }

// synthFresh elaborates and optimizes every block type from its spec
// and reports the cells left and the cells optimization removed.
func (f *fixture) synthFresh() (cellsOut, removed int, err error) {
	for ti := range f.design.Types {
		m, err := synth.Elaborate(f.design.Types[ti].Spec)
		if err != nil {
			return 0, 0, err
		}
		opt, err := synth.Optimize(m)
		if err != nil {
			return 0, 0, err
		}
		cellsOut += m.NumCells()
		removed += opt.DedupedLUTs + opt.DeadCells
	}
	return cellsOut, removed, nil
}

// moduleAll is cnv.Design.Module on a fresh design (the call memoizes
// per design), the synthesis step of every cnv compile.
func (f *fixture) moduleAll() func() {
	d := cnv.CNVW1A1()
	return func() {
		for ti := range d.Types {
			if _, err := d.Module(ti); err != nil {
				panic(err)
			}
		}
	}
}

func (f *fixture) quick(i int) { place.QuickPlace(f.mods[i]) }

func (f *fixture) build(i int) {
	if _, err := pblock.Build(f.dev, f.reps[i], f.srs[i].CF, f.cfg); err != nil {
		panic(err)
	}
}

// placeOK is place.Place in the minimal-CF rectangle.
func (f *fixture) placeOK(i int) {
	if _, err := place.Place(f.dev, f.mods[i], f.reps[i], f.srs[i].Impl.PBlock.Rect, f.cfg.Place); err != nil {
		panic(fmt.Sprintf("block %s no longer places at its minimal CF: %v", f.mods[i].Name, err))
	}
}

// placeReject is place.Place one grid step below the minimal CF — the
// probe the sweep repeats most. (It may place and then fail routing.)
func (f *fixture) placeReject(i int) {
	_, _ = place.Place(f.dev, f.mods[i], f.reps[i], f.below[i].Rect, f.cfg.Place)
}

func (f *fixture) verify(i int) error { return place.Verify(f.dev, f.srs[i].Impl.Placement) }

func (f *fixture) route(i int) { route.Route(f.srs[i].Impl.Placement, f.cfg.Route) }

// minCF runs the library's own search on block i and checks it against
// the fixture's spelled-out sweep.
func (f *fixture) minCF(i int, bisect bool) (toolRuns int, err error) {
	s := cnvSearch()
	if bisect {
		s.Strategy = pblock.StrategyBisect
	}
	sr, err := pblock.MinCF(f.dev, f.mods[i], f.reps[i], s, f.cfg)
	if err != nil {
		return 0, err
	}
	if sr.CF != f.srs[i].CF {
		return sr.ToolRuns, fmt.Errorf("block %s: search found CF %.2f, sweep %.2f", f.mods[i].Name, sr.CF, f.srs[i].CF)
	}
	return sr.ToolRuns, nil
}

// fromEstimate is the estimator-seeded search of block i, with the
// flow's rule that one-or-two-tile blocks sweep instead. estimated
// reports whether the estimator was consulted.
func (f *fixture) fromEstimate(i int, predict func(place.ShapeReport) float64) (toolRuns int, estimated bool, err error) {
	var sr pblock.SearchResult
	if f.reps[i].EstSlices < 6 {
		sr, err = pblock.MinCF(f.dev, f.mods[i], f.reps[i], cnvSearch(), f.cfg)
	} else {
		estimated = true
		sr, err = pblock.FromEstimate(f.dev, f.mods[i], f.reps[i], predict(f.reps[i]), cnvSearch(), f.cfg)
	}
	return sr.ToolRuns, estimated, err
}

// cacheRecord is the persistent cache's record of one block.
type cacheRecord struct{ rec pblock.ImplRecord }

func (f *fixture) record(i int) cacheRecord {
	rec, ok := pblock.RecordSearch(f.srs[i], nil)
	if !ok {
		panic("uncacheable search result")
	}
	return cacheRecord{rec}
}

func (r cacheRecord) bytes() int {
	b, err := json.Marshal(r.rec)
	if err != nil {
		panic(err)
	}
	return len(b)
}

func (f *fixture) rebuild(i int, r cacheRecord) error {
	_, rerr, ok := r.rec.Rebuild(f.dev, f.mods[i], f.reps[i], cnvSearch(), f.cfg)
	if !ok || rerr != nil {
		return fmt.Errorf("block %s did not rebuild (%v)", f.mods[i].Name, rerr)
	}
	return nil
}

// implStore is a throw-away implcache directory for the put/get probes.
type implStore struct{ c *implcache.Cache }

func openImplStore(dir string) (implStore, error) {
	c, err := implcache.Open(dir)
	return implStore{c}, err
}

func (s implStore) put(f *fixture, i int, r cacheRecord) error {
	return s.c.Put(blockKey(f.dev, f.mods[i], f.cfg), r.rec)
}

func (s implStore) get(f *fixture, i int) bool {
	var rec pblock.ImplRecord
	return s.c.Get(blockKey(f.dev, f.mods[i], f.cfg), &rec)
}

// checkImpl audits block i's implementation with the oracle.
func (f *fixture) checkImpl(i int) (violations int) {
	var rep oracle.Report
	oracle.CheckImplementation(f.dev, f.srs[i].Impl, &rep)
	return len(rep.Violations)
}

// checkMinCF re-probes block i's whole grid below its claimed CF.
func (f *fixture) checkMinCF(i int) (violations int) {
	var rep oracle.Report
	oracle.CheckMinCF(f.dev, f.mods[i], f.reps[i], f.srs[i].CF, -1, cnvSearch(), f.cfg, &rep)
	return len(rep.Violations)
}

func (f *fixture) stitchProblem() stitchProblem {
	impls := make([]*pblock.Implementation, f.n())
	for i := range f.srs {
		impls[i] = f.srs[i].Impl
	}
	return stitchProblem{cnvStitchProblem(f.dev, f.design, impls)}
}

// --- stitcher and partitioner ---------------------------------------------

type stitchProblem struct{ p *stitch.Problem }

// fingerprint identifies the problem's content (tests compare problems
// generated from equal and from different seeds).
func (p stitchProblem) fingerprint() string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(p.p.Blocks, p.p.Instances, p.p.Nets))))
}

// synthetic is the cnv-shaped scaled stitching problem on the xc7z045.
func synthetic(scale int, seed int64) stitchProblem {
	return stitchProblem{stitch.Synthetic(fabric.XC7Z045(), scale, seed)}
}

// stitchRun is one stitcher result in plain numbers.
type stitchRun struct {
	Cost            float64 // FinalCost + 2000*Unplaced
	FinalCost       float64
	Placed          int
	Unplaced        int
	Moves           int
	IllegalMoves    int
	ConvergenceIter int
	res             *stitch.Result
}

// same reports whether two runs arrived at the same placement: equal
// origins, instance by instance, and equal cost.
func (r stitchRun) same(o stitchRun) bool {
	return r.FinalCost == o.FinalCost && r.Placed == o.Placed && r.Unplaced == o.Unplaced &&
		slices.Equal(r.res.Origins, o.res.Origins)
}

func stitchConfig(backend string, moves, chains int, seed int64) (stitch.Config, bool) {
	be, err := stitch.ParseBackend(backend)
	if err != nil {
		return stitch.Config{}, false
	}
	cfg := stitch.DefaultConfig()
	cfg.Backend, cfg.Iterations, cfg.Chains, cfg.Seed = be, moves, chains, seed
	return cfg, true
}

// runStitch runs one backend, addressed by name; present is false when
// this build does not know the backend.
func runStitch(p stitchProblem, backend string, moves, chains int, seed int64) (run stitchRun, present bool) {
	cfg, ok := stitchConfig(backend, moves, chains, seed)
	if !ok {
		return stitchRun{}, false
	}
	res := stitch.Run(p.p, cfg)
	return stitchRun{
		Cost: stitchObjective(res.FinalCost, res.Unplaced), FinalCost: res.FinalCost,
		Placed: res.Placed, Unplaced: res.Unplaced,
		Moves: res.Iterations, IllegalMoves: res.IllegalMoves, ConvergenceIter: res.ConvergenceIter,
		res: res,
	}, true
}

// auditStitch recounts legality and cost from first principles.
func auditStitch(p stitchProblem, r stitchRun) (violations int) {
	var rep oracle.Report
	oracle.CheckPlacement(p.p, r.res.Origins, &rep)
	oracle.CheckCost(p.p, r.res.Origins, r.res.FinalCost, r.res.Placed, r.res.Unplaced, &rep)
	return len(rep.Violations)
}

func checkPlacement(p stitchProblem, r stitchRun) (violations int) {
	var rep oracle.Report
	oracle.CheckPlacement(p.p, r.res.Origins, &rep)
	return len(rep.Violations)
}

// assignTwoShards partitions p over the 2-member split of the xc7z045
// with the named backend; present is false when this build does not
// know the backend.
func assignTwoShards(p stitchProblem, backend string, seed int64) (set *fabric.Set, a *partition.Assignment, present bool, err error) {
	be, perr := partition.ParseBackend(backend)
	if perr != nil {
		return nil, nil, false, nil
	}
	if set, err = fabric.Shards(fabric.XC7Z045(), 2); err != nil {
		return nil, nil, true, err
	}
	a, err = partition.Assign(partition.FromStitch(p.p, set), partition.Config{Seed: seed, Backend: be})
	return set, a, true, err
}

// partitionCut is the cut weight the named partitioner backend reaches.
func partitionCut(p stitchProblem, backend string, seed int64) (cut float64, present bool, err error) {
	_, a, present, err := assignTwoShards(p, backend, seed)
	if !present || err != nil {
		return 0, present, err
	}
	return a.Cut, true, nil
}

// runSharded stitches p across two shards (greedy assignment, hybrid
// per shard); cost adds the cut weight to the stitcher's objective.
func runSharded(p stitchProblem, moves, chains int, seed int64) (cost float64, present bool, err error) {
	cfg, ok := stitchConfig("hybrid", moves, chains, seed)
	if !ok {
		return 0, false, nil
	}
	set, a, present, err := assignTwoShards(p, "greedy", seed)
	if !present || err != nil {
		return 0, present, err
	}
	sres, err := stitch.RunSharded(p.p, stitch.ShardsOf(set), a.Member, cfg)
	if err != nil {
		return 0, true, err
	}
	return stitchObjective(sres.FinalCost, sres.Unplaced) + sres.CutWeight, true, nil
}

// --- estimator ------------------------------------------------------------

// Estimator training of the daemon workload's set-up and the ml probes.
const (
	trainModules = 400
	trainTrees   = 100
	// The estimator is part of the system under test, not of the load:
	// every run trains the same one, whatever its -seed, so that set-up
	// time and the estimator's errors do not vary with the seed.
	trainSeed = 1
)

// trainEstimator is the one-time estimator investment through the
// public API: dataset generation under the bisect search, random-forest
// training, and the model file the daemon loads.
func trainEstimator(modules, trees int, path string) error {
	flow, err := macroflow.NewFlow(cnvDevice)
	if err != nil {
		return err
	}
	flow.SetSearch(searchStart, searchStep, searchMax)
	flow.SetSearchStrategy(macroflow.SearchBisect)
	est, _, err := flow.TrainEstimator(macroflow.RandomForest, macroflow.FeaturesAll,
		macroflow.TrainOptions{Modules: modules, Trees: trees, Seed: trainSeed})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := macroflow.SaveEstimator(f, est); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadEstimator(path string) (*macroflow.Estimator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return macroflow.LoadEstimator(f)
}

// mlData is the labelled dataset of the ml/dataset probes, generated
// like trainEstimator's.
type mlData struct {
	Labeled   int
	GenerateS float64
	xtr, xte  [][]float64
	ytr, yte  []float64
	forest    *ml.RandomForest
}

func generateDataset(modules int) (*mlData, error) {
	const seed = trainSeed
	cfg := dataset.DefaultConfig()
	cfg.Modules, cfg.Seed = modules, seed
	cfg.Search = cnvSearch()
	cfg.Search.Strategy = pblock.StrategyBisect
	t0 := time.Now()
	samples, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	d := &mlData{Labeled: len(samples), GenerateS: time.Since(t0).Seconds()}
	train, test := dataset.Split(dataset.Balance(samples, 75, seed), 0.8, seed)
	d.xtr, d.ytr = dataset.Vectors(ml.All, train)
	d.xte, d.yte = dataset.Vectors(ml.All, test)
	return d, nil
}

func (d *mlData) fit(trees int) error {
	d.forest = &ml.RandomForest{Trees: trees, MaxDepth: 20, Seed: trainSeed}
	return d.forest.Fit(d.xtr, d.ytr)
}

// predictTest predicts the held-out vectors and returns how many.
func (d *mlData) predictTest() int {
	ml.PredictAll(d.forest, d.xte)
	return len(d.xte)
}

func (d *mlData) relError() float64 {
	return ml.MeanRelError(ml.PredictAll(d.forest, d.xte), d.yte)
}

func (d *mlData) predictShape(rep place.ShapeReport) float64 {
	return d.forest.Predict(ml.All.Vector(ml.Extract(rep)))
}

// --- api/v1 ---------------------------------------------------------------

// apiDecode is the daemon's request admission work: strict decode,
// wire validation, and (for custom designs) building the design.
func apiDecode(body []byte) error {
	req, err := apiv1.DecodeRequest(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if err := req.Validate(); err != nil {
		return err
	}
	if req.Design.Builtin == "" {
		_, err = req.Design.BuildDesign()
	}
	return err
}

// apiEncode is the daemon's result encoding of a cnv compile.
func apiEncode(out cnvOut) ([]byte, error) {
	return json.Marshal(apiv1.ResultFromCNV(out.res, false))
}

// localResult compiles a request in process exactly as the daemon's
// worker does and returns the bytes the daemon must serve for it.
func localResult(req *apiv1.CompileRequest, est *macroflow.Estimator, cache blockCache) ([]byte, error) {
	device := req.Device
	if device == "" {
		device = cnvDevice
	}
	flow, err := macroflow.NewFlow(device)
	if err != nil {
		return nil, err
	}
	var mode macroflow.CFMode
	switch req.Mode.Kind {
	case "", "minsweep":
		mode = macroflow.MinSweepCF()
	case "estimator":
		if est == nil {
			return nil, errors.New("estimator mode without an estimator")
		}
		mode = macroflow.EstimatorCF(est)
	default:
		return nil, fmt.Errorf("mode %q not used by the harness", req.Mode.Kind)
	}
	so, err := req.Stitch.Options()
	if err != nil {
		return nil, err
	}
	im, err := req.Implement.Options()
	if err != nil {
		return nil, err
	}
	im.Cache = cache.c
	var wire *apiv1.CompileResult
	if req.Design.Builtin != "" {
		flow.SetSearch(searchStart, searchStep, searchMax)
		if w := req.Search; w != nil {
			flow.SetSearch(w.Start, w.Step, w.Max)
		}
		res, err := flow.RunCNV(mode, macroflow.CNVOptions{Stitch: so, Implement: im})
		if err != nil {
			return nil, err
		}
		wire = apiv1.ResultFromCNV(res, false)
	} else {
		if w := req.Search; w != nil {
			flow.SetSearch(w.Start, w.Step, w.Max)
		}
		d, err := req.Design.BuildDesign()
		if err != nil {
			return nil, err
		}
		res, err := flow.Compile(d, mode, macroflow.CompileOptions{Stitch: so, Implement: im})
		if err != nil {
			return nil, err
		}
		wire = apiv1.ResultFromCompile(res, false)
		wire.Instances = req.Design.InstanceCounts()
	}
	return json.Marshal(wire)
}
