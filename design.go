package macroflow

import (
	"fmt"
	"sort"
	"sync"

	"macroflow/internal/implcache"
	"macroflow/internal/netlist"
	"macroflow/internal/obs"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/stitch"
	"macroflow/internal/synth"
)

// Design is a user-defined block design: unique block types, the
// instances that replicate them, and the streams connecting instances.
// It is the generic counterpart of the built-in cnvW1A1 case study —
// the input a RapidWright-style flow expects.
type Design struct {
	types     []*Spec
	names     []string
	instances []designInst
	nets      []designNet
}

type designInst struct {
	name string
	typ  int
}

type designNet struct {
	from, to int
	width    int
}

// NewDesign returns an empty block design.
func NewDesign() *Design { return &Design{} }

// AddBlockType registers a unique block configuration and returns its
// type index. Each type is synthesized and implemented once, no matter
// how many instances use it.
func (d *Design) AddBlockType(spec *Spec) int {
	d.types = append(d.types, spec)
	d.names = append(d.names, spec.Name())
	return len(d.types) - 1
}

// AddInstance adds one occurrence of the given block type and returns
// its instance index.
func (d *Design) AddInstance(typeIdx int, name string) (int, error) {
	if typeIdx < 0 || typeIdx >= len(d.types) {
		return 0, fmt.Errorf("macroflow: block type %d out of range", typeIdx)
	}
	d.instances = append(d.instances, designInst{name: name, typ: typeIdx})
	return len(d.instances) - 1, nil
}

// Connect adds a width-bit stream between two instances; the stitcher
// minimizes the weighted wirelength of these connections.
func (d *Design) Connect(from, to, width int) error {
	if from < 0 || from >= len(d.instances) || to < 0 || to >= len(d.instances) {
		return fmt.Errorf("macroflow: connect endpoints out of range")
	}
	if width <= 0 {
		width = 1
	}
	d.nets = append(d.nets, designNet{from: from, to: to, width: width})
	return nil
}

// NumTypes returns the number of unique block types.
func (d *Design) NumTypes() int { return len(d.types) }

// NumInstances returns the number of block instances.
func (d *Design) NumInstances() int { return len(d.instances) }

// BlockCache stores pre-implemented blocks — the premise of the whole
// flow: when one block of a design changes, every other block's
// placed-and-routed result is reused verbatim (the paper's Introduction
// scenario). Implementations live in exactly one in-process map,
// content-addressed by blockDiskKey (device, module hash, CF mode,
// search window, oracle configuration), so a compile under a different
// mode or window can never be served another mode's result. An optional
// persistent layer under the same key (see NewPersistentBlockCache)
// carries implementations across processes.
type BlockCache struct {
	mu sync.Mutex
	// front remembers, per spec (device + printed components, name
	// excluded), the module hash and shape report its elaboration
	// produced. It holds no implementation: a hit only spares computing
	// the block's key by elaborating again, and the key it leads to is
	// looked up in byModule like any other.
	front map[string]frontEntry
	// byModule holds the search results, keyed by blockDiskKey.
	byModule map[string]pblock.SearchResult
	// inflight dedupes concurrent identical searches (singleflight):
	// while one goroutine — possibly serving another job in a
	// shared-cache daemon — implements a block, later callers with the
	// same content-addressed key wait for its result instead of
	// repeating the search.
	inflight map[string]*inflightSearch
	disk     *implcache.Cache
	stats    CacheStats
}

// frontEntry is what a spec's elaboration contributes to its block key.
type frontEntry struct {
	hash string
	rep  place.ShapeReport
}

// inflightSearch is one in-progress block implementation other callers
// can wait on. sr/err are written exactly once, before done is closed.
type inflightSearch struct {
	done chan struct{}
	sr   pblock.SearchResult
	err  error
}

// CacheStats are a BlockCache's lifetime counters, split by layer
// (apiv1.CacheStats is this type; the JSON tags are the wire spelling).
type CacheStats struct {
	// MemHits counts blocks served from the in-process map.
	MemHits int `json:"memHits"`
	// DiskHits counts blocks rebuilt from the persistent layer.
	DiskHits int `json:"diskHits"`
	// SingleflightHits counts blocks whose search was deduplicated
	// against an identical in-flight implementation: another goroutine
	// (possibly another job sharing the cache in a daemon) was already
	// computing the same content-addressed record, so this call waited
	// and shared its result instead of repeating the search.
	SingleflightHits int `json:"singleflightHits"`
	// Misses counts blocks that had to be implemented from scratch.
	Misses int `json:"misses"`
	// Stores counts records written to the persistent layer.
	Stores int `json:"stores"`
	// Negatives counts persistent-layer records that replayed a cached
	// infeasibility verdict (the search is skipped, but no
	// implementation is produced).
	Negatives int `json:"negatives"`
}

// NewBlockCache returns an empty in-memory cache.
func NewBlockCache() *BlockCache {
	return &BlockCache{
		front:    make(map[string]frontEntry),
		byModule: make(map[string]pblock.SearchResult),
		inflight: make(map[string]*inflightSearch),
	}
}

// NewPersistentBlockCache returns a cache backed by a content-addressed
// on-disk store rooted at dir, so implementations survive process exits:
// a fresh process compiling the same design performs zero place-and-route
// runs for unchanged blocks. Records are keyed by device, module content
// hash, CF mode and oracle configuration; a record whose placement no
// longer verifies is ignored, never served.
func NewPersistentBlockCache(dir string) (*BlockCache, error) {
	disk, err := implcache.Open(dir)
	if err != nil {
		return nil, err
	}
	c := NewBlockCache()
	c.disk = disk
	return c, nil
}

// Len returns the number of block implementations held in memory.
func (c *BlockCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byModule)
}

// Stats returns a snapshot of the cache's hit/miss/store counters.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// FlushStats persists the persistent layer's lifetime counters to its
// stats sidecar now (a no-op for a memory-only cache). Long-running
// processes — macroflowd in particular — call it on drain, so counters
// accumulated by a daemon session survive the process the same way CLI
// exits do.
func (c *BlockCache) FlushStats() error {
	if c.disk == nil {
		return nil
	}
	return c.disk.FlushStats()
}

// PersistentStats reports the persistent layer's lifetime counters
// (hits, misses, stores and negative verdicts across every process
// that ever used the cache directory, this one included). All zeros
// for a memory-only cache.
func (c *BlockCache) PersistentStats() (hits, misses, stores, negatives uint64) {
	if c.disk == nil {
		return 0, 0, 0, 0
	}
	s := c.disk.LifetimeStats()
	return s.Hits, s.Misses, s.Stores, s.Negatives
}

// specKey derives the front-index key from the device and the full
// component configuration of the spec (name excluded: renaming a block
// must not fake a change, but any parameter change must).
func specKey(device string, s *Spec) string {
	return fmt.Sprintf("%s|%#v", device, s.inner.Components)
}

// CompileOptions tunes Flow.Compile (and, as CNVOptions, Flow.RunCNV).
type CompileOptions struct {
	// Stitch tunes the stitcher.
	Stitch StitchOptions
	// Implement tunes block implementation.
	Implement ImplementOptions
	// Partition enables multi-region compilation (the zero value keeps
	// the single-device stitch).
	Partition PartitionOptions
	// SkipStitch implements the blocks only.
	SkipStitch bool
}

// CompileResult is the outcome of compiling a generic design.
type CompileResult struct {
	// Blocks holds one result per unique type.
	Blocks []ModuleResult
	// ToolRuns sums the place-and-route attempts of this call (cache
	// hits contribute zero).
	ToolRuns int
	// CacheHits counts block types served from the cache rather than a
	// fresh search (CacheHits == Cache.MemHits + Cache.DiskHits +
	// Cache.SingleflightHits for this call).
	CacheHits int
	// Cache breaks the hits down by layer for this call: in-memory hits,
	// persistent-layer rebuilds, in-flight singleflight joins, misses
	// and new persistent stores.
	Cache CacheStats
	// Stitch is the assembled design (zero value when SkipStitch). For a
	// partitioned run it is the aggregate over all shards.
	Stitch StitchReport
	// Partition is the per-member breakdown of a partitioned run — nil
	// unless Partition.Shards was set.
	Partition *PartitionReport
	// Verify is the oracle cross-check report — nil unless a CheckLevel
	// was requested on Implement.Check or Stitch.Check.
	Verify *VerifyReport
}

// Compile implements every unique block of the design under the CF mode
// (reusing cached implementations when a cache is supplied) and stitches
// all instances onto the flow's device. It is the one compile pipeline:
// RunCNV feeds the built-in cnvW1A1 design through it.
func (f *Flow) Compile(d *Design, mode CFMode, opts CompileOptions) (*CompileResult, error) {
	if len(d.types) == 0 {
		return nil, fmt.Errorf("macroflow: empty design")
	}
	im, so := opts.Implement, opts.Stitch
	if err := so.Validate(); err != nil {
		return nil, err
	}
	if err := im.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Partition.Validate(); err != nil {
		return nil, err
	}
	search := f.searchFor(im)
	if err := search.Validate(); err != nil {
		return nil, err
	}
	res := &CompileResult{Blocks: make([]ModuleResult, len(d.types))}
	impls := make([]*pblock.Implementation, len(d.types))
	hits := make([]blockHit, len(d.types))
	errs := make([]error, len(d.types))

	fps := f.fingerprints(search)
	rec := im.Obs
	root := rec.Start("flow.compile",
		obs.String("cf_mode", mode.kind),
		obs.Int("types", len(d.types)),
		obs.Int("instances", len(d.instances)))
	defer root.End()
	// Blocks are the one level of parallelism; inside one, the search
	// probes serially (DESIGN.md, "Search strategies").
	order := d.implementOrder()
	rec.Lanes("implement worker", im.Workers, len(order), func(k, lane int) {
		ti := order[k]
		sp := root.Child("implement.block",
			obs.String("block", d.names[ti])).WithLane(lane)
		impls[ti], res.Blocks[ti], hits[ti], errs[ti] = f.compileBlock(d.types[ti], mode, search, fps, im.Cache, sp)
		if errs[ti] == nil {
			sp.Set(obs.Float("cf", res.Blocks[ti].CF),
				obs.Int("tool_runs", res.Blocks[ti].ToolRuns),
				obs.String("cache", hitName(hits[ti].kind)))
		}
		sp.End()
	})
	for ti := range d.types {
		if errs[ti] != nil {
			return nil, fmt.Errorf("macroflow: block %s: %w", d.names[ti], errs[ti])
		}
		res.tally(res.Blocks[ti], hits[ti])
	}
	rec.Add("flow.tool_runs", int64(res.ToolRuns))
	root.Set(obs.Int("tool_runs", res.ToolRuns),
		obs.Int("cache_hits", res.CacheHits))
	if im.Check != CheckOff || so.Check != CheckOff {
		res.Verify = &VerifyReport{}
	}
	f.verifyBlocks(im.Check, mode, search, impls, res.Blocks, hits, res.Verify, rec, root)
	if opts.SkipStitch {
		return res, nil
	}

	prob := f.stitchProblem(d, impls)
	if opts.Partition.enabled() {
		st, pr, err := f.stitchPartitioned(prob, so, opts.Partition, root, res.Verify)
		if err != nil {
			return nil, err
		}
		res.Stitch, res.Partition = st, pr
	} else {
		res.Stitch = f.stitchDesign(prob, so, root, res.Verify)
	}
	root.Set(obs.Float("final_cost", res.Stitch.FinalCost),
		obs.Int("placed", res.Stitch.Placed),
		obs.Int("unplaced", res.Stitch.Unplaced))
	return res, nil
}

// implementOrder lists the block types in the order the workers start
// them: most cells first (synth.Cells, known without elaborating), ties
// in declaration order. The compile ends when its longest block does, so
// that block must not wait for a worker; the order decides only when a
// block runs — a block's result is a function of its spec, and tallies
// and errors are read in declaration order after the barrier.
func (d *Design) implementOrder() []int {
	cells := make([]int, len(d.types))
	order := make([]int, len(d.types))
	for ti, spec := range d.types {
		cells[ti], order[ti] = synth.Cells(spec.inner), ti
	}
	sort.SliceStable(order, func(i, j int) bool { return cells[order[i]] > cells[order[j]] })
	return order
}

// stitchProblem converts the implemented block types plus the design's
// instances and streams into a stitching task.
func (f *Flow) stitchProblem(d *Design, impls []*pblock.Implementation) *stitch.Problem {
	prob := &stitch.Problem{Dev: f.dev}
	for ti := range d.types {
		prob.Blocks = append(prob.Blocks, stitch.NewBlock(d.names[ti], impls[ti].Placement))
	}
	for _, in := range d.instances {
		prob.Instances = append(prob.Instances, stitch.Instance{Name: in.name, Block: in.typ})
	}
	for _, n := range d.nets {
		prob.Nets = append(prob.Nets, stitch.Net{From: n.from, To: n.to, Weight: float64(n.width) / 16})
	}
	return prob
}

// tally folds one block's outcome into the call's counters; only a
// freshly searched block contributes tool runs.
func (r *CompileResult) tally(b ModuleResult, h blockHit) {
	switch h.kind {
	case hitMem:
		r.CacheHits++
		r.Cache.MemHits++
	case hitDisk:
		r.CacheHits++
		r.Cache.DiskHits++
	case hitFlight:
		r.CacheHits++
		r.Cache.SingleflightHits++
	default:
		r.ToolRuns += b.ToolRuns
		r.Cache.Misses++
		if h.stored {
			r.Cache.Stores++
		}
	}
}

// blockHit reports how one block's implementation was obtained.
type blockHit struct {
	kind   int // hitMiss, hitMem or hitDisk
	stored bool
}

const (
	hitMiss = iota
	hitMem
	hitDisk
	hitFlight
)

// hitName renders a blockHit kind for trace attributes.
func hitName(kind int) string {
	switch kind {
	case hitMem:
		return "mem"
	case hitDisk:
		return "disk"
	case hitFlight:
		return "singleflight"
	default:
		return "miss"
	}
}

// compileBlock implements one block type — the one entry every block of
// every design goes through. Without a cache the spec is elaborated and
// searched. With one, the layers are consulted in order: the front
// index (spec → module hash and shape report) spares a repeat compile
// the elaboration it would only need to compute the block's key; the
// key is then resolved by cachedImplement, which elaborates only when a
// search or a disk rebuild has to run. sp, when non-nil, is the block's
// trace span. The result's Name is always the requesting spec's.
func (f *Flow) compileBlock(spec *Spec, mode CFMode, search pblock.SearchConfig, fps keyFingerprints, cache *BlockCache, sp *obs.Span) (*pblock.Implementation, ModuleResult, blockHit, error) {
	search.Span = sp
	if cache == nil {
		m, rep, err := pblock.FrontEnd(spec.inner, sp)
		if err != nil {
			return nil, ModuleResult{}, blockHit{}, err
		}
		sr, err := f.implementModule(m, rep, mode, search)
		if err != nil {
			return nil, ModuleResult{}, blockHit{}, err
		}
		return sr.Impl, f.moduleResult(spec.Name(), rep, sr), blockHit{}, nil
	}
	fkey := specKey(f.dev.Name, spec)
	cache.mu.Lock()
	fe, known := cache.front[fkey]
	cache.mu.Unlock()
	var m *netlist.Module
	if !known {
		var err error
		if m, fe.rep, err = pblock.FrontEnd(spec.inner, sp); err != nil {
			return nil, ModuleResult{}, blockHit{}, err
		}
		fe.hash = implcache.ModuleHash(m)
		cache.mu.Lock()
		cache.front[fkey] = fe
		cache.mu.Unlock()
	}
	module := func() (*netlist.Module, error) {
		if m != nil {
			return m, nil
		}
		m, _, err := pblock.FrontEnd(spec.inner, sp)
		return m, err
	}
	sr, hit, err := f.cachedImplement(f.blockDiskKey(fe.hash, fe.rep, mode, fps), module, fe.rep, mode, search, cache)
	if err != nil {
		return nil, ModuleResult{}, hit, err
	}
	return sr.Impl, f.moduleResult(spec.Name(), fe.rep, sr), hit, nil
}

// cachedImplement resolves a block key through the cache layers in
// order: the in-process map, then the in-flight singleflight registry
// (an identical search already running — in this job or a concurrent
// one sharing the cache — is joined, not repeated), then the persistent
// store (a disk record rebuilds the placement via a Verify-audited warm
// start), and only then a fresh search, whose outcome is written back to
// both layers. module elaborates the block; only the last two layers
// call it.
func (f *Flow) cachedImplement(key string, module func() (*netlist.Module, error), rep place.ShapeReport, mode CFMode, search pblock.SearchConfig, cache *BlockCache) (pblock.SearchResult, blockHit, error) {
	cache.mu.Lock()
	if sr, ok := cache.byModule[key]; ok {
		cache.stats.MemHits++
		cache.mu.Unlock()
		search.Obs.Add("blockcache.mem_hit", 1)
		return sr, blockHit{kind: hitMem}, nil
	}
	if fl, ok := cache.inflight[key]; ok {
		cache.mu.Unlock()
		<-fl.done
		search.Obs.Add("blockcache.singleflight_hit", 1)
		cache.mu.Lock()
		cache.stats.SingleflightHits++
		cache.mu.Unlock()
		// A failed leader does not poison followers beyond its own
		// error: the next cachedImplement call for this key elects a
		// fresh leader (negative verdicts persist via the disk layer).
		if fl.err != nil {
			return pblock.SearchResult{}, blockHit{}, fl.err
		}
		return fl.sr, blockHit{kind: hitFlight}, nil
	}
	fl := &inflightSearch{done: make(chan struct{})}
	cache.inflight[key] = fl
	cache.mu.Unlock()
	var hit blockHit
	m, err := module()
	if err == nil {
		fl.sr, hit, err = f.missImplement(key, m, rep, mode, search, cache)
	}
	// Publish before unregistering: byModule is already populated (on
	// success), so a caller arriving in between gets a memory hit.
	fl.err = err
	cache.mu.Lock()
	delete(cache.inflight, key)
	cache.mu.Unlock()
	close(fl.done)
	return fl.sr, hit, err
}

// missImplement resolves a block implementation the in-process map does
// not hold, through the persistent layer's read-through (a plain search
// for a memory-only cache), and keeps the in-memory layer's books: the
// map entry and the cache's lifetime counters. Callers hold the key's
// singleflight slot.
func (f *Flow) missImplement(key string, m *netlist.Module, rep place.ShapeReport, mode CFMode, search pblock.SearchConfig, cache *BlockCache) (pblock.SearchResult, blockHit, error) {
	sr, outcome, err := pblock.ReadThrough(cache.disk, key, f.dev, m, rep, search, f.cfg, func() (pblock.SearchResult, error) {
		return f.implementModule(m, rep, mode, search)
	})
	if !outcome.Served() {
		search.Obs.Add("blockcache.miss", 1)
	}
	hit := blockHit{stored: outcome.Stored()}
	cache.mu.Lock()
	switch outcome {
	case pblock.CacheNegative:
		cache.stats.Negatives++
	case pblock.CacheWarm:
		hit.kind = hitDisk
		cache.stats.DiskHits++
	default:
		cache.stats.Misses++
		if err == nil && hit.stored {
			cache.stats.Stores++
		}
	}
	if err == nil {
		cache.byModule[key] = sr
	}
	cache.mu.Unlock()
	if err != nil {
		return pblock.SearchResult{}, hit, err
	}
	return sr, hit, nil
}

// keyFingerprints are the parts of a block's persistent key that do not
// depend on the block: the printed search window and oracle
// configuration. A compile prints them once (fingerprints) and hands
// them to every block's blockDiskKey.
type keyFingerprints struct{ search, config string }

func (f *Flow) fingerprints(search pblock.SearchConfig) keyFingerprints {
	return keyFingerprints{
		search: pblock.SearchFingerprint(search),
		config: pblock.ConfigFingerprint(f.cfg),
	}
}

// blockDiskKey is the block's pblock.BlockKey — its address in memory
// and on disk — under the CF policy's fingerprint. The estimator mode
// folds the predicted CF into it: a retrained estimator addresses
// different records rather than being served stale ones.
func (f *Flow) blockDiskKey(moduleHash string, rep place.ShapeReport, mode CFMode, fps keyFingerprints) string {
	modeFP := mode.kind
	switch mode.kind {
	case "constant":
		modeFP = fmt.Sprintf("constant:%.4f", mode.constant)
	case "estimator":
		if rep.EstSlices < 6 {
			modeFP = "minsweep"
		} else {
			modeFP = fmt.Sprintf("estimator:%.6f", mode.estimator.predict(rep))
		}
	}
	return pblock.BlockKey(f.dev.Name, moduleHash, modeFP, fps.search, fps.config)
}

// constantImplement is the escalating constant-CF policy.
func (f *Flow) constantImplement(m *netlist.Module, rep place.ShapeReport, cf float64, search pblock.SearchConfig) (pblock.SearchResult, error) {
	ssp := obs.StartChild(search.Obs, search.Span, "search.constant",
		obs.String("module", m.Name), obs.Float("cf0", cf))
	oracle := search.Obs.Counter("mincf.oracle_runs")
	runs := 0
	plan := pblock.NewPlan(m, rep)
	for {
		runs++
		oracle.Add(1)
		psp := ssp.Child("oracle.probe", obs.Float("cf", cf))
		impl, err := pblock.ImplementPlan(f.dev, plan, cf, f.cfg)
		if err == nil {
			psp.Set(obs.String("verdict", "feasible"))
			psp.End()
			ssp.Set(obs.Float("cf", cf), obs.Int("tool_runs", runs))
			ssp.End()
			return pblock.SearchResult{CF: cf, Impl: impl, ToolRuns: runs}, nil
		}
		psp.Set(obs.String("verdict", "infeasible"))
		psp.End()
		cf += 0.1
		if cf > search.Max {
			ssp.Set(obs.Int("tool_runs", runs))
			ssp.End()
			return pblock.SearchResult{}, err
		}
	}
}
