package pblock

import (
	"errors"
	"testing"

	"macroflow/internal/fabric"
	"macroflow/internal/implcache"
	"macroflow/internal/rtlgen"
)

func openCache(t *testing.T, dir string) *implcache.Cache {
	t.Helper()
	c, err := implcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCachedMinCFCrossProcess is the persistent-cache contract: a search
// outcome stored by one cache instance is served by a fresh instance
// over the same directory (a new process), with an identical CF and
// implementation rectangle and with ToolRuns == 0, since no
// place-and-route ran in the second process.
func TestCachedMinCFCrossProcess(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	dir := t.TempDir()
	m, rep := module(t, rtlgen.Spec{
		Name:       "cached",
		Components: []rtlgen.Component{rtlgen.RandomLogic{LUTs: 400, Fanin: 4, Depth: 4, Seed: 11}},
	})

	s := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0, Cache: openCache(t, dir)}
	cold, err := MinCF(dev, m, rep, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.ToolRuns == 0 {
		t.Fatal("cold search must run the oracle")
	}
	if st := s.Cache.Stats(); st.Stores != 1 {
		t.Fatalf("cold search stats = %+v, want exactly 1 store", st)
	}

	s.Cache = openCache(t, dir)
	warm, err := MinCF(dev, m, rep, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.ToolRuns != 0 {
		t.Fatalf("cache hit reported %d tool runs, want 0", warm.ToolRuns)
	}
	if warm.CF != cold.CF {
		t.Fatalf("cached CF %.2f, want %.2f", warm.CF, cold.CF)
	}
	if warm.Impl == nil || warm.Impl.PBlock.Rect != cold.Impl.PBlock.Rect {
		t.Fatal("cached implementation does not match the original")
	}
	if warm.Impl.Route != cold.Impl.Route {
		t.Fatalf("cached route result %+v, want %+v", warm.Impl.Route, cold.Impl.Route)
	}
	if warm.Impl.Placement.UsedSlices != cold.Impl.Placement.UsedSlices {
		t.Fatal("cached placement does not match the original")
	}
	if st := s.Cache.Stats(); st.Hits != 1 {
		t.Fatalf("warm search stats = %+v, want 1 hit", st)
	}
}

// TestCachedMinCFNegativeVerdicts checks that failures are cached too:
// both the exhausted-window error and ErrNoFit replay from disk without
// re-running the search.
func TestCachedMinCFNegativeVerdicts(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()

	t.Run("no feasible CF", func(t *testing.T) {
		dir := t.TempDir()
		m, rep := module(t, rtlgen.Spec{
			Name:       "dense",
			Components: []rtlgen.Component{rtlgen.RandomLogic{LUTs: 900, Fanin: 6, Depth: 4, Seed: 3}},
		})
		s := SearchConfig{Start: 0.10, Step: 0.02, Max: 0.16, Cache: openCache(t, dir)}
		_, cerr := MinCF(dev, m, rep, s, cfg)
		if cerr == nil {
			t.Fatal("window must be infeasible")
		}
		s.Cache = openCache(t, dir)
		_, werr := MinCF(dev, m, rep, s, cfg)
		if werr == nil || werr.Error() != cerr.Error() {
			t.Fatalf("cached error %v, want %v", werr, cerr)
		}
		if st := s.Cache.Stats(); st.Hits != 1 {
			t.Fatalf("stats = %+v, want the verdict served from disk", st)
		}
	})

	t.Run("no fit", func(t *testing.T) {
		dir := t.TempDir()
		m, rep := module(t, rtlgen.Spec{
			Name:       "huge",
			Components: []rtlgen.Component{rtlgen.RandomLogic{LUTs: 20000, Fanin: 6, Depth: 4, Seed: 3}},
		})
		s := SearchConfig{Start: 0.9, Step: 0.02, Max: 3.0, Cache: openCache(t, dir)}
		_, cerr := MinCF(dev, m, rep, s, cfg)
		if !errors.Is(cerr, ErrNoFit) {
			t.Fatalf("err = %v, want ErrNoFit", cerr)
		}
		s.Cache = openCache(t, dir)
		_, werr := MinCF(dev, m, rep, s, cfg)
		if !errors.Is(werr, ErrNoFit) {
			t.Fatalf("cached err = %v, want ErrNoFit", werr)
		}
		if st := s.Cache.Stats(); st.Hits != 1 {
			t.Fatalf("stats = %+v, want the verdict served from disk", st)
		}
	})
}

// TestCachedMinCFStaleRecordReSearches plants a record that no longer
// matches the module (wrong cell count) under the correct key; Rebuild's
// audit must reject it and the search must run from scratch.
func TestCachedMinCFStaleRecordReSearches(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	m, rep := module(t, rtlgen.Spec{
		Name:       "stale",
		Components: []rtlgen.Component{rtlgen.RandomLogic{LUTs: 300, Fanin: 4, Depth: 3, Seed: 9}},
	})
	s := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0, Cache: openCache(t, t.TempDir())}
	key := searchCacheKey(dev, m, s, cfg)
	if err := s.Cache.Put(key, ImplRecord{Feasible: true, CF: 1.0, CellAt: nil}); err != nil {
		t.Fatal(err)
	}
	res, err := MinCF(dev, m, rep, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ToolRuns == 0 {
		t.Fatal("stale record must not short-circuit the search")
	}
	if res.Impl == nil || !res.Impl.Route.Feasible {
		t.Fatal("re-search must produce a real implementation")
	}
}

// TestSearchKeyIgnoresStrategyAndWorkers asserts the verdict-
// interchange property the fingerprint encodes: linear and bisect (at
// any parallelism) address the same record, so either strategy can
// serve the other's cache entry.
func TestSearchKeyIgnoresStrategyAndWorkers(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := DefaultConfig()
	m, _ := module(t, rtlgen.Spec{
		Name:       "keys",
		Components: []rtlgen.Component{rtlgen.RandomLogic{LUTs: 100, Fanin: 4, Depth: 3, Seed: 2}},
	})
	base := SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}
	variant := base
	variant.Strategy = StrategyBisect
	variant.Workers = 8
	if searchCacheKey(dev, m, base, cfg) != searchCacheKey(dev, m, variant, cfg) {
		t.Error("strategy/workers must not change the cache key")
	}
	widened := base
	widened.Max = 2.0
	if searchCacheKey(dev, m, base, cfg) == searchCacheKey(dev, m, widened, cfg) {
		t.Error("a different window must change the cache key")
	}
	cfg2 := cfg
	cfg2.Aspect = 2.0
	if searchCacheKey(dev, m, base, cfg) == searchCacheKey(dev, m, base, cfg2) {
		t.Error("a different oracle config must change the cache key")
	}
}

// TestConfigFingerprintPinned pins the fingerprint of the default oracle
// configuration, a part of every persistent cache key. It prints
// place.Options and route.Config with %+v, so adding, renaming or
// reordering a field of either re-keys every cache directory in
// existence; this test makes that a visible diff instead of an accident.
func TestConfigFingerprintPinned(t *testing.T) {
	const want = "aspect=1 ax=1 ay=0 " +
		"route={CapacityPerTile:70 PeakLimit:3 MaxOverflowFrac:0.25 DetourInflate:1.5 AssumeRoutable:false} " +
		"place={Seed:0 Compact:false IgnoreControlSets:false PreOccupy:0 Warm:<nil>}"
	if got := ConfigFingerprint(DefaultConfig()); got != want {
		t.Errorf("ConfigFingerprint(DefaultConfig()):\n got %s\nwant %s", got, want)
	}
}
