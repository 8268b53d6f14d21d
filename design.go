package macroflow

import (
	"container/list"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"unsafe"

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

// MaxNetWidth bounds a net's width in bits. A net of width w weighs w/16
// and a distance between block centres is at most 2^10 half tiles
// (xc7z045: 95 columns + 350 rows), so a net costs below 2^30 units of
// 1/32; a 1 MiB request body spells fewer than 2^20 nets, and with the
// anchors of a partitioned run and the unplaced penalties the total
// stays below 2^52 units, where the float64 cost a result reports is
// exact.
const MaxNetWidth = 1 << 20

// ErrNetWidth is the error Connect returns, wrapped, for a width above
// MaxNetWidth.
var ErrNetWidth = errors.New("macroflow: net width above MaxNetWidth")

// Connect adds a width-bit stream between two instances; the stitcher
// minimizes the weighted wirelength of these connections. A width below
// 1 counts as 1; one above MaxNetWidth is an ErrNetWidth.
func (d *Design) Connect(from, to, width int) error {
	if from < 0 || from >= len(d.instances) || to < 0 || to >= len(d.instances) {
		return fmt.Errorf("macroflow: connect endpoints out of range")
	}
	if width > MaxNetWidth {
		return fmt.Errorf("%w: width %d > %d", ErrNetWidth, width, MaxNetWidth)
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
// carries implementations across processes; over it, the map is held to
// a byte budget (memBudget).
type BlockCache struct {
	mu sync.Mutex
	// front remembers, per spec (device + printed components, name
	// excluded), the module hash and shape report its elaboration
	// produced. It holds no implementation: a hit only spares computing
	// the block's key by elaborating again, and the key it leads to is
	// looked up in byModule like any other. Over a persistent layer an
	// entry lives only as long as a result it led to (tieFront), so
	// front is bounded with byModule; a memory-only cache keeps every
	// entry.
	front map[string]frontEntry
	// byModule holds the search results, keyed by blockDiskKey.
	// memBytes is what they are charged (entryBytes). lru lists the
	// ones that have a record on disk, most recently used first; while
	// memBytes exceeds budget, the least recently used is dropped, and
	// its next lookup is a disk rebuild through pblock.ReadThrough,
	// never a search. A memory-only cache has no such entry and keeps
	// everything.
	byModule map[string]*memEntry
	lru      list.List
	memBytes int64
	budget   int64
	// inflight dedupes concurrent identical searches (singleflight):
	// while one goroutine — possibly serving another job in a
	// shared-cache daemon — implements a block, later callers with the
	// same content-addressed key wait for its result instead of
	// repeating the search.
	inflight map[string]*inflightSearch
	disk     *implcache.Cache
	stats    CacheStats
}

// memBudget is the byte budget of a persistent cache's in-memory map.
// The 69 cnvW1A1 blocks, the largest working set a caller reuses, are
// charged 1.9 MB of it, so a compile of cnvW1A1 never evicts.
const memBudget = 6 << 20

// memEntry is one result in byModule.
type memEntry struct {
	key   string
	sr    pblock.SearchResult
	bytes int64
	elem  *list.Element // in lru; nil for a result with no disk record
	// fronts are the front entries that led to this result; they are
	// dropped with it.
	fronts []string
}

// entryBytes is what a result is charged against the budget: an
// estimate of the memory it holds, computed from its implementation
// alone — the module's cells, nets, sink lists and control sets, the
// placement's cell coordinates and footprint columns, the key, and a
// fixed allowance for the structs and the map slot around them. The
// module's slices count at capacity: every path elaborates a module the
// same way, while a rebuilt placement's capacity differs from a
// searched one's, so the placement's count at length. An implementation
// is thus charged the same however it was produced.
func entryBytes(key string, sr pblock.SearchResult) int64 {
	const overhead = 512
	n := int64(overhead + len(key))
	if sr.Impl == nil || sr.Impl.Placement == nil {
		return n
	}
	pl := sr.Impl.Placement
	n += int64(len(pl.CellAt))*int64(unsafe.Sizeof(place.Coord{})) +
		int64(len(pl.Footprint.Cols))*int64(unsafe.Sizeof(place.RowSpan{}))
	if m := pl.Module; m != nil {
		n += int64(cap(m.Cells))*int64(unsafe.Sizeof(netlist.Cell{})) +
			int64(cap(m.Nets))*int64(unsafe.Sizeof(netlist.Net{})) +
			int64(cap(m.ControlSets))*2*int64(unsafe.Sizeof(netlist.ControlSet{})) +
			int64(cap(m.Outputs))*int64(unsafe.Sizeof(netlist.NetID(0)))
		for _, net := range m.Nets {
			n += int64(cap(net.Sinks)) * int64(unsafe.Sizeof(netlist.CellID(0)))
		}
	}
	return n
}

// store puts a result into byModule, on the LRU list when the persistent
// layer holds its record (onDisk), and drops least recently used results
// until the map is within budget. It returns how many it dropped. c.mu
// is held.
func (c *BlockCache) store(key string, sr pblock.SearchResult, onDisk bool) (evicted int) {
	e := &memEntry{key: key, sr: sr, bytes: entryBytes(key, sr)}
	if onDisk {
		e.elem = c.lru.PushFront(e)
	}
	c.byModule[key] = e
	c.memBytes += e.bytes
	for c.memBytes > c.budget && c.lru.Len() > 0 {
		old := c.lru.Remove(c.lru.Back()).(*memEntry)
		delete(c.byModule, old.key)
		for _, fkey := range old.fronts {
			delete(c.front, fkey)
		}
		c.memBytes -= old.bytes
		evicted++
	}
	return evicted
}

// tieFront ties the front entry fkey, just added, to the result its key
// resolved to, so that evicting the result drops the entry too. Over a
// persistent layer an entry that led to no evictable result it still
// holds — a failed block, or one evicted already — is dropped now. A
// dropped entry costs its spec's next lookup one ModuleHash and nothing
// else: the disk rebuild that lookup needs elaborates the module anyway.
func (c *BlockCache) tieFront(fkey, key string) {
	if c.disk == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byModule[key]
	switch {
	case !ok:
		delete(c.front, fkey)
	case e.elem != nil && !slices.Contains(e.fronts, fkey):
		e.fronts = append(e.fronts, fkey)
	}
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

// note books one lookup's outcome: a served outcome counts in its
// layer, every other is a miss, and a miss that wrote a record (a
// negative verdict included) is also a store.
func (s *CacheStats) note(o pblock.CacheOutcome) {
	switch o {
	case pblock.CacheMem:
		s.MemHits++
	case pblock.CacheFlight:
		s.SingleflightHits++
	case pblock.CacheWarm:
		s.DiskHits++
	case pblock.CacheNegative:
		s.Negatives++
	default:
		s.Misses++
		if o.Stored() {
			s.Stores++
		}
	}
}

// NewBlockCache returns an empty in-memory cache.
func NewBlockCache() *BlockCache {
	return &BlockCache{
		front:    make(map[string]frontEntry),
		byModule: make(map[string]*memEntry),
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
	c.disk, c.budget = disk, memBudget
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
	if err := mode.Validate(); err != nil {
		return nil, err
	}
	search := f.search
	search.Obs = im.Obs
	if err := search.Validate(); err != nil {
		return nil, err
	}
	res := &CompileResult{Blocks: make([]ModuleResult, len(d.types))}
	impls := make([]*pblock.Implementation, len(d.types))
	outcomes := make([]pblock.CacheOutcome, len(d.types))
	errs := make([]error, len(d.types))

	blockDiskKey := f.blockDiskKeys(search)
	rec := im.Obs
	root := rec.Start("flow.compile",
		obs.String("cf_mode", mode.name()),
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
		impls[ti], res.Blocks[ti], outcomes[ti], errs[ti] = f.compileBlock(d.types[ti], mode, search, blockDiskKey, im.Cache, sp)
		if errs[ti] == nil {
			sp.Set(obs.Float("cf", res.Blocks[ti].CF),
				obs.Int("tool_runs", res.Blocks[ti].ToolRuns),
				obs.String("cache", outcomes[ti].String()))
		}
		sp.End()
	})
	for ti := range d.types {
		if errs[ti] != nil {
			return nil, fmt.Errorf("macroflow: block %s: %w", d.names[ti], errs[ti])
		}
		// Only a freshly searched block contributes tool runs.
		res.Cache.note(outcomes[ti])
		if outcomes[ti].Hit() {
			res.CacheHits++
		} else {
			res.ToolRuns += res.Blocks[ti].ToolRuns
		}
	}
	rec.Add("flow.tool_runs", int64(res.ToolRuns))
	root.Set(obs.Int("tool_runs", res.ToolRuns),
		obs.Int("cache_hits", res.CacheHits))
	if im.Check != CheckOff || so.Check != CheckOff {
		res.Verify = &VerifyReport{}
	}
	f.verifyBlocks(im.Check, mode, search, impls, res.Blocks, outcomes, res.Verify, rec, root)
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

// compileBlock implements one block type — the one entry every block of
// every design goes through. Without a cache the spec is elaborated and
// searched. With one, the layers are consulted in order: the front
// index (spec → module hash and shape report) spares a repeat compile
// the elaboration it would only need to compute the block's key; the
// key is then resolved by cachedImplement, which elaborates only when a
// search or a disk rebuild has to run. sp, when non-nil, is the block's
// trace span. The result's Name is always the requesting spec's.
func (f *Flow) compileBlock(spec *Spec, mode CFMode, search pblock.SearchConfig, blockDiskKey func(string, pblock.Policy) string, cache *BlockCache, sp *obs.Span) (*pblock.Implementation, ModuleResult, pblock.CacheOutcome, error) {
	search.Span = sp
	if cache == nil {
		m, rep, err := pblock.FrontEnd(spec.inner, sp)
		if err != nil {
			return nil, ModuleResult{}, pblock.CacheMiss, err
		}
		sr, err := mode.policy(rep).Search(f.dev, m, rep, search, f.cfg)
		if err != nil {
			return nil, ModuleResult{}, pblock.CacheMiss, err
		}
		return sr.Impl, f.moduleResult(spec.Name(), rep, sr), pblock.CacheMiss, nil
	}
	fkey := specKey(f.dev.Name, spec)
	cache.mu.Lock()
	fe, known := cache.front[fkey]
	cache.mu.Unlock()
	var m *netlist.Module
	if !known {
		var err error
		if m, fe.rep, err = pblock.FrontEnd(spec.inner, sp); err != nil {
			return nil, ModuleResult{}, pblock.CacheMiss, err
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
	p := mode.policy(fe.rep)
	key := blockDiskKey(fe.hash, p)
	sr, outcome, err := f.cachedImplement(key, module, fe.rep, p, search, cache)
	if !known {
		cache.tieFront(fkey, key)
	}
	if err != nil {
		return nil, ModuleResult{}, outcome, err
	}
	return sr.Impl, f.moduleResult(spec.Name(), fe.rep, sr), outcome, nil
}

// cachedImplement resolves a block key through the cache layers in
// order: the in-process map, then the in-flight singleflight registry
// (an identical search already running — in this job or a concurrent
// one sharing the cache — is joined, not repeated), then the persistent
// layer's read-through (a disk record rebuilds the placement via a
// Verify-audited warm start; a memory-only cache searches), whose
// result is written back to the map. module elaborates the block; only
// the read-through calls it. Every outcome is booked once, in the
// cache's lifetime counters.
func (f *Flow) cachedImplement(key string, module func() (*netlist.Module, error), rep place.ShapeReport, p pblock.Policy, search pblock.SearchConfig, cache *BlockCache) (pblock.SearchResult, pblock.CacheOutcome, error) {
	cache.mu.Lock()
	if e, ok := cache.byModule[key]; ok {
		if e.elem != nil {
			cache.lru.MoveToFront(e.elem)
		}
		cache.stats.note(pblock.CacheMem)
		cache.mu.Unlock()
		search.Obs.Add("blockcache.mem_hit", 1)
		return e.sr, pblock.CacheMem, nil
	}
	if fl, ok := cache.inflight[key]; ok {
		cache.mu.Unlock()
		<-fl.done
		search.Obs.Add("blockcache.singleflight_hit", 1)
		cache.mu.Lock()
		cache.stats.note(pblock.CacheFlight)
		cache.mu.Unlock()
		// A failed leader does not poison followers beyond its own
		// error: the next cachedImplement call for this key elects a
		// fresh leader (negative verdicts persist via the disk layer).
		return fl.sr, pblock.CacheFlight, fl.err
	}
	fl := &inflightSearch{done: make(chan struct{})}
	cache.inflight[key] = fl
	cache.mu.Unlock()
	outcome := pblock.CacheMiss
	m, err := module()
	if err == nil {
		fl.sr, outcome, err = pblock.ReadThrough(cache.disk, key, f.dev, m, rep, search, f.cfg, func() (pblock.SearchResult, error) {
			return p.Search(f.dev, m, rep, search, f.cfg)
		})
		if !outcome.Served() {
			search.Obs.Add("blockcache.miss", 1)
		}
		cache.mu.Lock()
		cache.stats.note(outcome)
		if err == nil {
			if evicted := cache.store(key, fl.sr, outcome != pblock.CacheMiss); evicted > 0 {
				search.Obs.Add("blockcache.evictions", int64(evicted))
			}
			search.Obs.SetGauge("blockcache.mem_bytes", float64(cache.memBytes))
		}
		cache.mu.Unlock()
	}
	// Publish before unregistering: byModule is already populated (on
	// success), so a caller arriving in between gets a memory hit.
	fl.err = err
	cache.mu.Lock()
	delete(cache.inflight, key)
	cache.mu.Unlock()
	close(fl.done)
	return fl.sr, outcome, err
}

// blockDiskKeys returns a compile's block key: a block's pblock.BlockKey,
// its address in memory and on disk, from its module hash and resolved
// policy. The window and oracle configuration are printed once.
func (f *Flow) blockDiskKeys(search pblock.SearchConfig) func(moduleHash string, p pblock.Policy) string {
	sfp, cfp := pblock.SearchFingerprint(search), pblock.ConfigFingerprint(f.cfg)
	return func(moduleHash string, p pblock.Policy) string {
		return pblock.BlockKey(f.dev.Name, moduleHash, p.Fingerprint(), sfp, cfp)
	}
}
