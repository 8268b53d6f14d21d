package macroflow

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"macroflow/internal/cnv"
	"macroflow/internal/dataset"
	"macroflow/internal/implcache"
	"macroflow/internal/oracle"
	"macroflow/internal/place"
	"macroflow/internal/rtlgen"
)

// TestPersistentBlockCacheCrossProcess exercises the persistent layer
// end to end: a compile populates the on-disk cache, and a second flow
// with a fresh cache instance over the same directory (modeling a new
// process) serves every block from disk — zero tool runs, identical
// per-block results.
func TestPersistentBlockCacheCrossProcess(t *testing.T) {
	dir := t.TempDir()

	flow, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	flow.SetSearch(0.9, 0.02, 3.0)
	cold, err := NewPersistentBlockCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := flow.Compile(smallDesign(120), MinSweepCF(), CompileOptions{Implement: ImplementOptions{Cache: cold}, SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.ToolRuns == 0 {
		t.Fatal("cold compile must run the tools")
	}
	if first.Cache.Stores != len(first.Blocks) {
		t.Errorf("stores = %d, want one per block type (%d)", first.Cache.Stores, len(first.Blocks))
	}
	if first.Cache.DiskHits != 0 || first.CacheHits != 0 {
		t.Errorf("cold compile reported hits: %+v", first.Cache)
	}

	// New process: fresh flow, fresh cache instance, same directory.
	flow2, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	flow2.SetSearch(0.9, 0.02, 3.0)
	warm, err := NewPersistentBlockCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := flow2.Compile(smallDesign(120), MinSweepCF(), CompileOptions{Implement: ImplementOptions{Cache: warm}, SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.ToolRuns != 0 {
		t.Errorf("warm compile ran %d tools, want 0", second.ToolRuns)
	}
	if second.Cache.DiskHits != len(second.Blocks) {
		t.Errorf("disk hits = %d, want %d", second.Cache.DiskHits, len(second.Blocks))
	}
	if len(second.Blocks) != len(first.Blocks) {
		t.Fatalf("block count changed: %d vs %d", len(second.Blocks), len(first.Blocks))
	}
	for i := range second.Blocks {
		a, b := first.Blocks[i], second.Blocks[i]
		if a.Name != b.Name || a.CF != b.CF || a.PBlock != b.PBlock || a.UsedSlices != b.UsedSlices {
			t.Errorf("block %s rebuilt differently: %+v vs %+v", a.Name, a, b)
		}
	}

	// Third compile in the same "process": the in-memory layer serves it.
	third, err := flow2.Compile(smallDesign(120), MinSweepCF(), CompileOptions{Implement: ImplementOptions{Cache: warm}, SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if third.Cache.MemHits != len(third.Blocks) || third.ToolRuns != 0 {
		t.Errorf("mem-layer compile: %+v, runs=%d", third.Cache, third.ToolRuns)
	}
}

// TestPersistentCacheServesBisectFlow asserts the strategy-agnostic
// cache key: records stored by a linear-search flow are served to a
// flow configured for the bisect strategy, because both return the same
// minimal CFs.
func TestPersistentCacheServesBisectFlow(t *testing.T) {
	dir := t.TempDir()

	lin, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	lin.SetSearch(0.9, 0.02, 3.0)
	c1, err := NewPersistentBlockCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := lin.Compile(smallDesign(120), MinSweepCF(), CompileOptions{Implement: ImplementOptions{Cache: c1}, SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}

	bis, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	bis.SetSearch(0.9, 0.02, 3.0)
	bis.SetSearchStrategy(SearchBisect)
	c2, err := NewPersistentBlockCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := bis.Compile(smallDesign(120), MinSweepCF(), CompileOptions{Implement: ImplementOptions{Cache: c2}, SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.ToolRuns != 0 || second.Cache.DiskHits != len(second.Blocks) {
		t.Errorf("bisect flow must be served from the linear flow's records: %+v, runs=%d",
			second.Cache, second.ToolRuns)
	}
	for i := range second.Blocks {
		if second.Blocks[i].CF != first.Blocks[i].CF {
			t.Errorf("block %s: CF %.2f vs %.2f", second.Blocks[i].Name, second.Blocks[i].CF, first.Blocks[i].CF)
		}
	}
}

// TestBlockDiskKeyPinned pins the persistent key of one cnvW1A1 block
// under two CF policies to the literals recorded before a compile
// started printing the search and configuration fingerprints once per
// call instead of once per block. A failure re-keys every record on
// disk: that must be a decision, not a side effect.
func TestBlockDiskKeyPinned(t *testing.T) {
	f, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	d := cnv.CNVW1A1()
	m, err := d.Module(d.TypeIndex("mvau_l34"))
	if err != nil {
		t.Fatal(err)
	}
	rep := place.QuickPlace(m)
	hash := implcache.ModuleHash(m)
	blockDiskKey := f.blockDiskKeys(f.search)
	for _, c := range []struct {
		mode CFMode
		want string
	}{
		{MinSweepCF(), "70b44992e1cba212e3ae07bf51bb1f6e815e19407842322e48abc4ba020e16d7"},
		{ConstantCF(1.5), "7356d0071db3e523c5fa6e2d4ce982a911d327ab266d26f7208c62ec82663851"},
	} {
		if got := blockDiskKey(hash, c.mode.policy(rep)); got != c.want {
			t.Errorf("blockDiskKey(mvau_l34, %s) = %s, want %s", c.mode.name(), got, c.want)
		}
	}
}

// TestDamagedCacheRecordIsMiss is the torn-write and bit-rot fault
// class, end to end through Compile: a record file cut short or with a
// byte flipped fails the frame check, counts as a persistent-layer miss,
// and the block is searched afresh — so the compile equals an uncached
// one, block for block, and leaves a repaired record behind.
func TestDamagedCacheRecordIsMiss(t *testing.T) {
	f := verifyFlow(t)
	d := verifySmallDesign(t)
	uncached, err := f.Compile(d, MinSweepCF(), CompileOptions{SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]func(*oracle.Chaos, string) (string, error){
		"truncated":    (*oracle.Chaos).TruncateCacheEntry,
		"flipped byte": (*oracle.Chaos).FlipCacheEntryByte,
	} {
		for seed := int64(1); seed <= 4; seed++ {
			dir := t.TempDir()
			warm, err := NewPersistentBlockCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Compile(d, MinSweepCF(), CompileOptions{
				SkipStitch: true, Implement: ImplementOptions{Cache: warm},
			}); err != nil {
				t.Fatal(err)
			}
			path, err := damage(oracle.NewChaos(seed), dir)
			if err != nil {
				t.Fatal(err)
			}

			// A fresh process over the damaged directory.
			cold, err := NewPersistentBlockCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Compile(d, MinSweepCF(), CompileOptions{
				SkipStitch: true, Implement: ImplementOptions{Cache: cold, Check: CheckFull},
			})
			if err != nil {
				t.Fatalf("%s (seed %d): %v", name, seed, err)
			}
			blocks := len(res.Blocks)
			if res.Cache.DiskHits != blocks-1 || res.Cache.Misses != 1 || res.Cache.Stores != 1 {
				t.Errorf("%s %s: cache %+v, want %d disk hits, 1 miss, 1 store", name, path, res.Cache, blocks-1)
			}
			if st := cold.disk.Stats(); st.Misses != 1 || st.Hits != uint64(blocks-1) {
				t.Errorf("%s %s: persistent layer counted %+v, want 1 miss and %d hits", name, path, st, blocks-1)
			}
			if !res.Verify.Ok() {
				t.Errorf("%s %s: audit of the recovered compile failed:\n%s", name, path, res.Verify.String())
			}
			if res.ToolRuns == 0 {
				t.Errorf("%s %s: no tool ran — the damaged record was served", name, path)
			}
			for i := range res.Blocks {
				got, want := res.Blocks[i], uncached.Blocks[i]
				got.ToolRuns, want.ToolRuns = 0, 0 // a cache hit reports no runs
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s: block %s = %+v, uncached compile has %+v", name, path, want.Name, got, want)
				}
			}

			// The fresh search rewrote the record: a third process hits
			// every block.
			again, err := NewPersistentBlockCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			res, err = f.Compile(d, MinSweepCF(), CompileOptions{
				SkipStitch: true, Implement: ImplementOptions{Cache: again},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cache.DiskHits != blocks || res.ToolRuns != 0 {
				t.Errorf("%s %s: after repair %+v with %d tool runs, want every block from disk", name, path, res.Cache, res.ToolRuns)
			}
		}
	}
}

// TestLabelAndBlockShareRecord: a module labelled by dataset.Generate and
// the same module compiled under MinSweepCF (same window, same oracle
// configuration) are one record under one key, so whichever runs first
// serves the other — a labelled corpus compiles with zero tool runs, and
// a compiled design labels with zero oracle runs.
func TestLabelAndBlockShareRecord(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.Modules, cfg.Seed = 12, 5
	want, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	labelled := make(map[string]float64, len(want))
	for _, s := range want {
		labelled[s.Name] = s.CF
	}
	// The specs Generate labelled, as a design.
	design := func() *Design {
		d := NewDesign()
		for _, spec := range rtlgen.GenerateMix(rand.New(rand.NewSource(cfg.Seed)), cfg.Modules) {
			if _, ok := labelled[spec.Name]; ok {
				d.AddBlockType(&Spec{inner: spec})
			}
		}
		return d
	}
	n := design().NumTypes()
	if n < 6 || n != len(want) {
		t.Fatalf("%d of %d generated modules labelled into %d block types: pick a seed with more, uniquely named", len(want), cfg.Modules, n)
	}
	compile := func(dir string) *CompileResult {
		t.Helper()
		flow, err := NewFlow("xc7z020")
		if err != nil {
			t.Fatal(err)
		}
		flow.SetSearch(cfg.Search.Start, cfg.Search.Step, cfg.Search.Max)
		cache, err := NewPersistentBlockCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := flow.Compile(design(), MinSweepCF(), CompileOptions{SkipStitch: true, Implement: ImplementOptions{Cache: cache}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	generate := func(dir string) ([]dataset.Sample, *Recorder) {
		t.Helper()
		c := cfg
		c.Cache, err = implcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		c.Search.Obs = NewRecorder()
		got, err := dataset.Generate(c)
		if err != nil {
			t.Fatal(err)
		}
		return got, c.Search.Obs
	}

	// Labels first: the compile is served from the labels' records.
	dir := t.TempDir()
	if got, _ := generate(dir); !reflect.DeepEqual(got, want) {
		t.Fatal("labelling through a cache changed the samples")
	}
	res := compile(dir)
	if res.Cache.DiskHits != n || res.ToolRuns != 0 {
		t.Errorf("compile after labelling: %+v, %d tool runs; want %d disk hits and 0 runs", res.Cache, res.ToolRuns, n)
	}
	for _, b := range res.Blocks {
		if b.CF != labelled[b.Name] {
			t.Errorf("block %s compiled at CF %.2f, labelled %.2f", b.Name, b.CF, labelled[b.Name])
		}
	}

	// Compile first: the labels are served from the blocks' records.
	dir = t.TempDir()
	if res := compile(dir); res.Cache.Stores != n {
		t.Fatalf("cold compile stored %d records, want %d", res.Cache.Stores, n)
	}
	got, rec := generate(dir)
	if !reflect.DeepEqual(got, want) {
		t.Error("labels served from compiled blocks differ from searched labels")
	}
	if runs := rec.CounterValue("mincf.oracle_runs"); runs != 0 {
		t.Errorf("labelling after the compile ran the oracle %d times, want 0", runs)
	}
	if hits := rec.CounterValue("blockcache.disk_hit"); hits != int64(n) {
		t.Errorf("labelling after the compile: %d disk hits, want %d", hits, n)
	}
}

// TestCacheLedgersAgree compiles a block with no feasible CF in its
// window through a persistent cache: the stored negative verdict must
// count as one store in every ledger — the cache's Stats, the
// persistent layer's lifetime counters and the blockcache.store
// counter — and a fresh cache over the same directory must replay it
// as one negative in both of its ledgers.
func TestCacheLedgersAgree(t *testing.T) {
	dir := t.TempDir()
	compile := func() (*BlockCache, *Recorder) {
		t.Helper()
		f, err := NewFlow("xc7z020")
		if err != nil {
			t.Fatal(err)
		}
		f.SetSearch(0.5, 0.02, 0.5)
		cache, err := NewPersistentBlockCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDesign()
		d.AddBlockType(NewSpec("ledger").Logic(400, 6, 4).SumOfSquares(12, 2))
		d.AddInstance(0, "ledger_0")
		rec := NewRecorder()
		_, err = f.Compile(d, MinSweepCF(), CompileOptions{
			SkipStitch: true,
			Implement:  ImplementOptions{Cache: cache, Obs: rec},
		})
		if err == nil || !strings.Contains(err.Error(), "no feasible CF") {
			t.Fatalf("compile error = %v, want no feasible CF", err)
		}
		return cache, rec
	}

	cold, rec := compile()
	_, _, stores, _ := cold.PersistentStats()
	if st := cold.Stats(); st.Stores != 1 || stores != 1 || rec.CounterValue("blockcache.store") != 1 {
		t.Errorf("stores: Stats %d, persistent %d, blockcache.store %d; want 1 each",
			st.Stores, stores, rec.CounterValue("blockcache.store"))
	}

	warm, rec := compile()
	_, _, _, negatives := warm.PersistentStats()
	if st := warm.Stats(); st.Negatives != 1 || negatives != 1 || rec.CounterValue("blockcache.negative") != 1 {
		t.Errorf("negatives: Stats %d, persistent %d, blockcache.negative %d; want 1 each",
			st.Negatives, negatives, rec.CounterValue("blockcache.negative"))
	}
}

// TestBlockCacheBudget: a persistent cache holds its in-memory map to
// its byte budget by dropping the least recently used results, and a
// dropped result comes back as a disk rebuild — no tool run, the same
// ModuleResult the search gave — with the ledgers of
// TestCacheLedgersAgree still agreeing. The front index is dropped with
// the results it led to. A memory-only cache never drops a result, and
// a compile of cnvW1A1 fits the default budget.
func TestBlockCacheBudget(t *testing.T) {
	specs := map[string]*Spec{
		"big":   NewSpec("budget_big").Logic(400, 6, 3),
		"mid":   NewSpec("budget_mid").Logic(200, 5, 2),
		"small": NewSpec("budget_small").ShiftRegs(4, 8, 2, 4),
	}
	design := func(names ...string) *Design {
		d := NewDesign()
		for i, name := range names {
			d.AddBlockType(specs[name])
			d.AddInstance(i, name)
		}
		return d
	}
	all := design("big", "mid", "small")
	compile := func(cache *BlockCache, d *Design) (*CompileResult, *Recorder) {
		t.Helper()
		f, err := NewFlow("xc7z020")
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder()
		// One worker: the blocks run largest first, the smallest last.
		res, err := f.Compile(d, MinSweepCF(), CompileOptions{SkipStitch: true,
			Implement: ImplementOptions{Cache: cache, Obs: rec, Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return res, rec
	}
	held := func(cache *BlockCache) []string {
		var names []string
		for _, e := range cache.byModule {
			names = append(names, e.sr.Impl.Placement.Module.Name)
		}
		slices.Sort(names)
		return names
	}

	mem := NewBlockCache()
	want, rec := compile(mem, all)
	if mem.Len() != 3 || mem.memBytes <= mem.budget || rec.CounterValue("blockcache.evictions") != 0 {
		t.Errorf("memory-only cache: %d results, %d bytes against budget %d, %d evictions; want all 3 kept",
			mem.Len(), mem.memBytes, mem.budget, rec.CounterValue("blockcache.evictions"))
	}
	charge := map[string]int64{}
	for _, e := range mem.byModule {
		charge[e.sr.Impl.Placement.Module.Name] = e.bytes
	}

	// Room for the last block the compile uses, and nothing else.
	dir := t.TempDir()
	cache, err := NewPersistentBlockCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.budget = charge["budget_small"]
	cold, rec := compile(cache, all)
	if !reflect.DeepEqual(cold.Blocks, want.Blocks) {
		t.Error("a budgeted cache changed the searched results")
	}
	mb, _ := rec.GaugeValue("blockcache.mem_bytes")
	if got := held(cache); !slices.Equal(got, []string{"budget_small"}) || cache.memBytes > cache.budget ||
		int64(mb) != cache.memBytes || rec.CounterValue("blockcache.evictions") != 2 {
		t.Errorf("budget %d: holds %v, %d bytes (gauge %g), %d evictions; want budget_small alone within the budget, 2 evictions",
			cache.budget, got, cache.memBytes, mb, rec.CounterValue("blockcache.evictions"))
	}
	_, _, stores, _ := cache.PersistentStats()
	if st := cache.Stats(); st.Stores != 3 || stores != 3 || rec.CounterValue("blockcache.store") != 3 {
		t.Errorf("stores: Stats %d, persistent %d, blockcache.store %d; want 3 each",
			st.Stores, stores, rec.CounterValue("blockcache.store"))
	}

	// The dropped blocks come back from disk, never from a search.
	warm, rec := compile(cache, all)
	if warm.ToolRuns != 0 || warm.CacheHits != 3 || rec.CounterValue("mincf.oracle_runs") != 0 {
		t.Errorf("recompile: %d tool runs, %d oracle runs, %d hits; want 0, 0, 3",
			warm.ToolRuns, rec.CounterValue("mincf.oracle_runs"), warm.CacheHits)
	}
	if !reflect.DeepEqual(warm.Blocks, want.Blocks) {
		t.Error("a block rebuilt after eviction differs from its searched result")
	}
	hits, _, _, _ := cache.PersistentStats()
	st := cache.Stats()
	if st.DiskHits < 2 || st.DiskHits != int(hits) || rec.CounterValue("blockcache.disk_hit") != int64(hits) ||
		st.MemHits+st.DiskHits != 3 || st.Misses != 3 {
		t.Errorf("disk hits: Stats %+v, persistent %d, blockcache.disk_hit %d; want >= 2 of 3 hits from disk, one count in each ledger",
			st, hits, rec.CounterValue("blockcache.disk_hit"))
	}

	// Least recently used goes first: with room for two, big used again
	// after mid stays when small arrives, and mid goes.
	lru, err := NewPersistentBlockCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	lru.budget = charge["budget_big"] + max(charge["budget_mid"], charge["budget_small"])
	for _, name := range []string{"big", "mid", "big", "small"} {
		compile(lru, design(name))
	}
	if got := held(lru); !slices.Equal(got, []string{"budget_big", "budget_small"}) {
		t.Errorf("after big, mid, big, small with room for two: holds %v, want budget_big and budget_small", got)
	}

	// The front index goes with the results it led to: novel specs well
	// past the budget leave no more front entries than results, and a
	// spec whose entry went is served again from disk.
	for i := range 8 {
		specs[fmt.Sprint(i)] = NewSpec(fmt.Sprintf("budget_novel%d", i)).Logic(60+20*i, 4, 2)
		compile(lru, design(fmt.Sprint(i)))
	}
	if len(lru.front) > len(lru.byModule) || len(lru.byModule) > 3 {
		t.Errorf("after 8 novel specs: %d front entries, %d results; want no more entries than results, at most 3",
			len(lru.front), len(lru.byModule))
	}
	if again, _ := compile(lru, design("0")); again.ToolRuns != 0 || again.CacheHits != 1 {
		t.Errorf("a spec whose front entry was dropped: %d tool runs, %d hits; want 0 and 1", again.ToolRuns, again.CacheHits)
	}

	// cnvW1A1's blocks fit the default budget.
	cnv, err := NewPersistentBlockCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	f.SetSearch(0.5, 0.02, 3.0)
	rec = NewRecorder()
	if _, err := f.RunCNV(MinSweepCF(), CNVOptions{SkipStitch: true, Implement: ImplementOptions{Cache: cnv, Obs: rec}}); err != nil {
		t.Fatal(err)
	}
	if n := rec.CounterValue("blockcache.evictions"); n != 0 || cnv.Len() != 69 {
		t.Errorf("cnvW1A1 under the default budget: %d evictions, %d of 69 blocks in memory (%d of %d bytes)",
			n, cnv.Len(), cnv.memBytes, cnv.budget)
	}
}
