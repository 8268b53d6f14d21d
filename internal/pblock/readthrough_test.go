package pblock_test

import (
	"errors"
	"reflect"
	"testing"

	"macroflow/internal/fabric"
	"macroflow/internal/implcache"
	"macroflow/internal/obs"
	"macroflow/internal/oracle"
	"macroflow/internal/pblock"
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

// blockcacheCounters are the counters ReadThrough may move.
var blockcacheCounters = []string{"blockcache.disk_hit", "blockcache.negative", "blockcache.stale", "blockcache.store"}

// TestReadThrough drives the one persistent-cache read-through through
// every state a cache directory can be in when a block asks for its
// record. Each case prepares the directory, then makes the call under
// test on a fresh handle (a new process) and checks the outcome value,
// the counters that moved, whether the oracle ran, and that the result
// is the uncached search's, bit for bit.
func TestReadThrough(t *testing.T) {
	dev := fabric.XC7Z020()
	cfg := pblock.DefaultConfig()
	logic := func(name string, luts, fanin, depth int, seed int64) rtlgen.Spec {
		return rtlgen.Spec{Name: name, Components: []rtlgen.Component{
			rtlgen.RandomLogic{LUTs: luts, Fanin: fanin, Depth: depth, Seed: seed}}}
	}
	wide := pblock.SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}
	feasible := logic("cached", 400, 4, 4, 11)

	// How the directory got into its state before the call under test.
	searchedOnce := func(t *testing.T, dir, key string, call func(*implcache.Cache) pblock.CacheOutcome) {
		if out := call(openCache(t, dir)); out != pblock.CacheStored {
			t.Fatalf("first search on an empty directory: outcome %d, want CacheStored", out)
		}
	}
	damaged := func(damage func(*oracle.Chaos, string) (string, error), seed int64) func(*testing.T, string, string, func(*implcache.Cache) pblock.CacheOutcome) {
		return func(t *testing.T, dir, key string, call func(*implcache.Cache) pblock.CacheOutcome) {
			searchedOnce(t, dir, key, call)
			if _, err := damage(oracle.NewChaos(seed), dir); err != nil {
				t.Fatal(err)
			}
		}
	}

	type prepare = func(t *testing.T, dir, key string, call func(*implcache.Cache) pblock.CacheOutcome)
	cases := []struct {
		name     string
		spec     rtlgen.Spec
		window   pblock.SearchConfig
		prepare  prepare // nil: an empty directory
		nilCache bool
		want     pblock.CacheOutcome
		moved    []string // counters that move by exactly one; all others stay
		searches bool     // the oracle runs and a probes_per_block sample lands
		wantErr  bool
	}{
		{name: "empty directory", spec: feasible, window: wide,
			want: pblock.CacheStored, moved: []string{"blockcache.store"}, searches: true},
		{name: "warm", spec: feasible, window: wide, prepare: searchedOnce,
			want: pblock.CacheWarm, moved: []string{"blockcache.disk_hit"}},
		{name: "no-fit negative", spec: logic("huge", 20000, 6, 4, 3),
			window: pblock.SearchConfig{Start: 0.9, Step: 0.02, Max: 3.0}, prepare: searchedOnce,
			want: pblock.CacheNegative, moved: []string{"blockcache.negative"}, wantErr: true},
		{name: "window-exhausted negative", spec: logic("dense", 900, 6, 4, 3),
			window: pblock.SearchConfig{Start: 0.10, Step: 0.02, Max: 0.16}, prepare: searchedOnce,
			want: pblock.CacheNegative, moved: []string{"blockcache.negative"}, wantErr: true},
		{name: "stale record", spec: logic("stale", 300, 4, 3, 9), window: wide,
			// A record under the right key that no longer matches the
			// module (wrong cell count): Rebuild's audit must turn it away.
			prepare: func(t *testing.T, dir, key string, _ func(*implcache.Cache) pblock.CacheOutcome) {
				if err := openCache(t, dir).Put(key, pblock.ImplRecord{Feasible: true, CF: 1.0}); err != nil {
					t.Fatal(err)
				}
			},
			want: pblock.CacheStale, moved: []string{"blockcache.stale", "blockcache.store"}, searches: true},
		{name: "truncated frame", spec: feasible, window: wide,
			prepare: damaged((*oracle.Chaos).TruncateCacheEntry, 1),
			want:    pblock.CacheStored, moved: []string{"blockcache.store"}, searches: true},
		{name: "bit-flipped frame", spec: feasible, window: wide,
			prepare: damaged((*oracle.Chaos).FlipCacheEntryByte, 2),
			want:    pblock.CacheStored, moved: []string{"blockcache.store"}, searches: true},
		{name: "nil cache", spec: feasible, window: wide, nilCache: true,
			want: pblock.CacheMiss, searches: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, rep, err := pblock.FrontEnd(tc.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			uncached, uerr := pblock.MinCF(dev, m, rep, tc.window, cfg)
			if (uerr != nil) != tc.wantErr {
				t.Fatalf("uncached search: err = %v, want error: %t", uerr, tc.wantErr)
			}
			key := pblock.SweepKey(dev, m, tc.window, cfg)
			through := func(c *implcache.Cache, s pblock.SearchConfig) (pblock.SearchResult, pblock.CacheOutcome, error) {
				return pblock.ReadThrough(c, key, dev, m, rep, s, cfg, func() (pblock.SearchResult, error) {
					return pblock.MinCF(dev, m, rep, s, cfg)
				})
			}
			dir := t.TempDir()
			if tc.prepare != nil {
				tc.prepare(t, dir, key, func(c *implcache.Cache) pblock.CacheOutcome {
					_, out, _ := through(c, tc.window)
					return out
				})
			}

			var cache *implcache.Cache
			if !tc.nilCache {
				cache = openCache(t, dir)
			}
			rec := obs.New()
			s := tc.window
			s.Obs = rec
			got, out, err := through(cache, s)

			if out != tc.want {
				t.Errorf("outcome %d, want %d", out, tc.want)
			}
			if out.Served() == tc.searches {
				t.Errorf("Served() = %t for an outcome that searches: %t", out.Served(), tc.searches)
			}
			want := map[string]int64{}
			for _, name := range tc.moved {
				want[name] = 1
			}
			for _, name := range blockcacheCounters {
				if v := rec.CounterValue(name); v != want[name] {
					t.Errorf("counter %s = %d, want %d", name, v, want[name])
				}
			}
			if ran := rec.CounterValue("mincf.oracle_runs") > 0; ran != tc.searches {
				t.Errorf("oracle ran: %t, want %t", ran, tc.searches)
			}
			if n := rec.BucketHistValue("mincf.probes_per_block").Count; (n == 1) != tc.searches || n > 1 {
				t.Errorf("mincf.probes_per_block holds %d samples, want one per search that ran (%t)", n, tc.searches)
			}

			// The uncached search's result, bit for bit.
			if tc.wantErr {
				if err == nil || errors.Is(err, pblock.ErrNoFit) != errors.Is(uerr, pblock.ErrNoFit) {
					t.Fatalf("err = %v, uncached search says %v", err, uerr)
				}
				if !errors.Is(uerr, pblock.ErrNoFit) && err.Error() != uerr.Error() {
					t.Errorf("err = %v, uncached search says %v", err, uerr)
				}
				if st := cache.Stats(); st.Negatives != 1 || st.Hits != 1 {
					t.Errorf("persistent layer counted %+v, want the verdict served from disk", st)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, uncached) {
				t.Errorf("result differs from the uncached search:\n got %+v\nwant %+v", got, uncached)
			}
			// Whatever the directory held, it now serves the block.
			if !tc.nilCache {
				again, out, err := through(openCache(t, dir), tc.window)
				if err != nil || out != pblock.CacheWarm || !reflect.DeepEqual(again, uncached) {
					t.Errorf("next process: outcome %d, err %v, equal %t; want a warm hit on the same result",
						out, err, reflect.DeepEqual(again, uncached))
				}
			}
		})
	}
}

// TestCacheOutcomeTable pins what each outcome says: whether the cache
// answered, whether with an implementation, whether a record was
// written, and the name the implement.block trace attribute carries.
func TestCacheOutcomeTable(t *testing.T) {
	for _, tc := range []struct {
		o                   pblock.CacheOutcome
		served, hit, stored bool
		name                string
	}{
		{pblock.CacheMiss, false, false, false, "miss"},
		{pblock.CacheStored, false, false, true, "miss"},
		{pblock.CacheStale, false, false, true, "miss"},
		{pblock.CacheWarm, true, true, false, "disk"},
		{pblock.CacheNegative, true, false, false, "negative"},
		{pblock.CacheMem, true, true, false, "mem"},
		{pblock.CacheFlight, true, true, false, "singleflight"},
	} {
		if tc.o.Served() != tc.served || tc.o.Hit() != tc.hit || tc.o.Stored() != tc.stored || tc.o.String() != tc.name {
			t.Errorf("outcome %d: Served/Hit/Stored/String = %v/%v/%v/%q, want %v/%v/%v/%q",
				int(tc.o), tc.o.Served(), tc.o.Hit(), tc.o.Stored(), tc.o.String(),
				tc.served, tc.hit, tc.stored, tc.name)
		}
	}
}
