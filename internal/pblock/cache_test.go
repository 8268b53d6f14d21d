package pblock

import (
	"testing"

	"macroflow/internal/fabric"
	"macroflow/internal/rtlgen"
)

// TestSearchKeyIgnoresStrategyAndWorkers asserts the verdict-
// interchange property the fingerprint encodes: linear and bisect
// address the same record, so either strategy can serve the other's
// cache entry. No worker count is part of a key either: SearchConfig
// has none to hash.
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
	if SweepKey(dev, m, base, cfg) != SweepKey(dev, m, variant, cfg) {
		t.Error("the strategy must not change the cache key")
	}
	widened := base
	widened.Max = 2.0
	if SweepKey(dev, m, base, cfg) == SweepKey(dev, m, widened, cfg) {
		t.Error("a different window must change the cache key")
	}
	cfg2 := cfg
	cfg2.Aspect = 2.0
	if SweepKey(dev, m, base, cfg) == SweepKey(dev, m, base, cfg2) {
		t.Error("a different oracle config must change the cache key")
	}
}

// TestSearchFingerprintPrintsTicks: a window prints the ticks it
// probes. An on-grid window prints as it is written, so the keys of
// every record written before the searches stepped ticks hold; a Start
// off the grid prints its nearest tick, because the sweep from 0.91 is
// the sweep from 0.92 (a record the float sweep wrote under 0.91 holds
// its irregular probes, and is not read). An empty window prints as
// written.
func TestSearchFingerprintPrintsTicks(t *testing.T) {
	for _, c := range []struct {
		s    SearchConfig
		want string
	}{
		{DefaultSearch(), "start=0.9 step=0.02 max=2.5"},
		{SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}, "start=0.5 step=0.02 max=3"},
		{SearchConfig{Start: 0.9, Step: 0.1, Max: 3.0}, "start=0.9 step=0.1 max=3"},
		{SearchConfig{Start: 0.91, Step: 0.02, Max: 3.0}, "start=0.92 step=0.02 max=3"},
		{SearchConfig{Start: 3.5, Step: 0.02, Max: 3.0}, "start=3.5 step=0.02 max=3"},
	} {
		if got := SearchFingerprint(c.s); got != c.want {
			t.Errorf("SearchFingerprint(%+v) = %q, want %q", c.s, got, c.want)
		}
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
