package macroflow

import (
	"reflect"
	"sync"
	"testing"

	"macroflow/internal/implcache"
	"macroflow/internal/netlist"
	"macroflow/internal/pblock"
)

// sfDesign builds a fresh one-block design (each concurrent caller gets
// its own Design value; only the BlockCache is shared).
func sfDesign() *Design {
	d := NewDesign()
	d.AddBlockType(NewSpec("sf_logic").Logic(96, 4, 2))
	d.AddInstance(0, "sf_logic_0")
	return d
}

// TestSingleflightJoinsInflightSearch drives the hitFlight path
// deterministically: a pre-registered, already-resolved inflight entry
// must be joined — counted as a singleflight hit — instead of
// triggering a fresh search.
func TestSingleflightJoinsInflightSearch(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	spec := NewSpec("sf_logic").Logic(96, 4, 2)
	m, rep, err := pblock.FrontEnd(spec.inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	search := f.searchFor(ImplementOptions{Obs: rec})
	cache := NewBlockCache()

	key := f.blockDiskKey(implcache.ModuleHash(m), rep, MinSweepCF(), f.fingerprints(search))
	module := func() (*netlist.Module, error) { return m, nil }

	// Leader pass: compute the real result once.
	want, hit, err := f.cachedImplement(key, module, rep, MinSweepCF(), search, cache)
	if err != nil {
		t.Fatal(err)
	}
	if hit.kind != hitMiss {
		t.Fatalf("first implement hit kind = %s, want miss", hitName(hit.kind))
	}

	// Re-stage the cache as if the leader were still in flight, with its
	// result already published.
	cache.mu.Lock()
	delete(cache.byModule, key)
	fl := &inflightSearch{done: make(chan struct{}), sr: want}
	cache.inflight[key] = fl
	cache.mu.Unlock()
	close(fl.done)

	got, hit2, err := f.cachedImplement(key, module, rep, MinSweepCF(), search, cache)
	if err != nil {
		t.Fatal(err)
	}
	if hit2.kind != hitFlight {
		t.Errorf("follower hit kind = %s, want singleflight", hitName(hit2.kind))
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("singleflight follower got a different result than the leader")
	}
	if st := cache.Stats(); st.SingleflightHits != 1 {
		t.Errorf("SingleflightHits = %d, want 1", st.SingleflightHits)
	}
	if got := rec.CounterValue("blockcache.singleflight_hit"); got != 1 {
		t.Errorf("blockcache.singleflight_hit counter = %d, want 1", got)
	}
}

// TestSingleflightConcurrentCompiles: N concurrent identical compiles
// sharing one cache must perform exactly one fresh search — dedup makes
// the miss count deterministic (1 per unique block), with every other
// caller served by the memory layer or the in-flight join.
func TestSingleflightConcurrentCompiles(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	cache := NewBlockCache()
	const n = 6
	results := make([]*CompileResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = f.Compile(sfDesign(), MinSweepCF(), CompileOptions{
				SkipStitch: true,
				Implement:  ImplementOptions{Cache: cache},
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
	}
	st := cache.Stats()
	if st.Misses != 1 {
		t.Errorf("Misses = %d, want exactly 1 fresh search for 1 unique block", st.Misses)
	}
	if st.MemHits+st.SingleflightHits != n-1 {
		t.Errorf("MemHits(%d) + SingleflightHits(%d) = %d, want %d",
			st.MemHits, st.SingleflightHits, st.MemHits+st.SingleflightHits, n-1)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[i].Blocks, results[0].Blocks) {
			t.Fatalf("compile %d blocks diverged from compile 0", i)
		}
	}
	// Per-call accounting must agree with the shared layer totals.
	hits := 0
	for _, r := range results {
		hits += r.CacheHits
		if r.CacheHits != r.Cache.MemHits+r.Cache.DiskHits+r.Cache.SingleflightHits {
			t.Errorf("CacheHits %d != layered sum %+v", r.CacheHits, r.Cache)
		}
	}
	if hits != n-1 {
		t.Errorf("summed per-call CacheHits = %d, want %d", hits, n-1)
	}
}
