// Package dataset produces the training corpus of the paper's §VI-A/§VII:
// it sweeps the RTL generators, elaborates and optimizes each module,
// measures its minimal correction factor with the placement/routing
// oracle at 0.02 resolution, balances the skewed CF distribution by
// capping each bin (Fig. 8), and splits into train and test sets.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"macroflow/internal/fabric"
	"macroflow/internal/implcache"
	"macroflow/internal/ml"
	"macroflow/internal/netlist"
	"macroflow/internal/obs"
	"macroflow/internal/pblock"
	"macroflow/internal/rtlgen"
)

// Sample is one labeled module: its estimator features and the measured
// minimal correction factor.
type Sample struct {
	Name     string
	Features ml.Features
	CF       float64
	// Stats keeps the raw structural statistics for the Fig. 7 design
	// space coverage report.
	Stats netlist.Stats
}

// Config controls dataset generation.
type Config struct {
	// Modules is the number of generated modules (paper: ~2,000).
	Modules int
	// Seed drives the generator sweep.
	Seed int64
	// Device is the target part (paper: xc7z020).
	Device *fabric.Device
	// Search is the minimal-CF sweep (paper: start 0.9, step 0.02).
	Search pblock.SearchConfig
	// Flow configures PBlock generation and the feasibility oracle.
	Flow pblock.Config
	// Cache, when non-nil, is the persistent implementation cache labels
	// are read through: a module a previous run labelled — or a compile
	// implemented under the min-sweep policy on the same window and
	// configuration — is served from its record, and fresh labels are
	// stored.
	Cache *implcache.Cache
}

// DefaultConfig returns the paper's dataset parameters.
func DefaultConfig() Config {
	return Config{
		Modules: 2000,
		Seed:    1,
		Device:  fabric.XC7Z020(),
		Search:  pblock.DefaultSearch(),
		Flow:    pblock.DefaultConfig(),
	}
}

// Generate builds the labeled dataset. Modules whose minimal CF falls
// outside the search range are dropped (mirroring the paper's filtering);
// the returned slice preserves generation order, so results are
// deterministic regardless of scheduling.
func Generate(cfg Config) ([]Sample, error) {
	if cfg.Modules <= 0 {
		return nil, fmt.Errorf("dataset: non-positive module count %d", cfg.Modules)
	}
	if cfg.Device == nil {
		cfg.Device = fabric.XC7Z020()
	}
	if cfg.Search.Step <= 0 {
		cfg.Search = pblock.DefaultSearch()
	}
	if err := cfg.Search.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := rtlgen.GenerateMix(rng, cfg.Modules)

	rec := cfg.Search.Obs
	root := obs.StartChild(rec, cfg.Search.Span, "dataset.generate",
		obs.Int("modules", len(specs)), obs.Int("workers", runtime.GOMAXPROCS(0)))

	type slot struct {
		sample Sample
		ok     bool
		err    error
	}
	slots := make([]slot, len(specs))
	rec.Lanes("dataset worker", 0, len(specs), func(i, lane int) {
		sp := root.Child("dataset.module",
			obs.String("module", specs[i].Name)).WithLane(lane)
		mcfg := cfg
		mcfg.Search.Span = sp
		s, ok, err := label(mcfg, specs[i])
		if err == nil {
			sp.Set(obs.String("kept", fmt.Sprintf("%t", ok)))
			if ok {
				sp.Set(obs.Float("cf", s.CF))
			}
		}
		sp.End()
		slots[i] = slot{sample: s, ok: ok, err: err}
	})
	root.End()

	out := make([]Sample, 0, len(specs))
	for i := range slots {
		if slots[i].err != nil {
			return nil, slots[i].err
		}
		if slots[i].ok {
			out = append(out, slots[i].sample)
		}
	}
	return out, nil
}

// label runs one spec through the block path — front end, then the
// min-sweep search behind the cache's read-through — and extracts its
// sample. ok=false marks a module filtered out because no CF in range is
// feasible.
func label(cfg Config, spec rtlgen.Spec) (Sample, bool, error) {
	m, rep, err := pblock.FrontEnd(spec, cfg.Search.Span)
	if err != nil {
		return Sample{}, false, err
	}
	// Tiny modules are excluded, as in §VIII.
	if pblock.Tiny(rep.EstSlices) {
		return Sample{}, false, nil
	}
	key := ""
	if cfg.Cache != nil {
		key = pblock.SweepKey(cfg.Device, m, cfg.Search, cfg.Flow)
	}
	res, _, err := pblock.ReadThrough(cfg.Cache, key, cfg.Device, m, rep, cfg.Search, cfg.Flow, func() (pblock.SearchResult, error) {
		return pblock.MinCF(cfg.Device, m, rep, cfg.Search, cfg.Flow)
	})
	if err != nil {
		return Sample{}, false, nil // unlabelable: filter, not fail
	}
	f := ml.Extract(rep)
	for _, v := range ml.All.Vector(f) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Sample{}, false, fmt.Errorf("dataset: %s: non-finite feature", spec.Name)
		}
	}
	return Sample{
		Name:     spec.Name,
		Features: f,
		CF:       res.CF,
		Stats:    rep.Stats,
	}, true, nil
}

// Bin returns the CF histogram bin index: the CF's grid tick.
func Bin(cf float64) int { return int(pblock.TickOf(cf)) }

// Histogram counts samples per CF bin.
func Histogram(samples []Sample) map[int]int {
	h := make(map[int]int)
	for _, s := range samples {
		h[Bin(s.CF)]++
	}
	return h
}

// Balance shuffles the samples and caps each CF bin at capPerBin,
// reproducing the paper's Fig. 8 filtering (cap 75, 2,000 -> ~1,500).
func Balance(samples []Sample, capPerBin int, seed int64) []Sample {
	shuffled := make([]Sample, len(samples))
	copy(shuffled, samples)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	counts := make(map[int]int)
	out := make([]Sample, 0, len(shuffled))
	for _, s := range shuffled {
		b := Bin(s.CF)
		if counts[b] >= capPerBin {
			continue
		}
		counts[b]++
		out = append(out, s)
	}
	return out
}

// Split shuffles and divides the samples into train and test portions.
func Split(samples []Sample, trainFrac float64, seed int64) (train, test []Sample) {
	shuffled := make([]Sample, len(samples))
	copy(shuffled, samples)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	cut := int(float64(len(shuffled)) * trainFrac)
	if cut < 0 {
		cut = 0
	}
	if cut > len(shuffled) {
		cut = len(shuffled)
	}
	return shuffled[:cut], shuffled[cut:]
}

// Vectors projects samples onto a feature set, returning the design
// matrix and target vector.
func Vectors(fs ml.FeatureSet, samples []Sample) ([][]float64, []float64) {
	X := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		X[i] = fs.Vector(s.Features)
		y[i] = s.CF
	}
	return X, y
}
