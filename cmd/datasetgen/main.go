// Command datasetgen generates the labeled PBlock-estimator dataset:
// it sweeps the §VI-A RTL generators, measures every module's minimal
// correction factor with the placement/routing oracle, balances the CF
// histogram, and writes the result as CSV (features + label) for
// external analysis.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"macroflow/internal/cliflags"
	"macroflow/internal/dataset"
	"macroflow/internal/fabric"
	"macroflow/internal/implcache"
	"macroflow/internal/ml"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("datasetgen: ")
	modules := flag.Int("modules", 2000, "modules to generate")
	seed := flag.Int64("seed", 1, "generator seed")
	device := flag.String("device", "xc7z020", "target device")
	capBin := flag.Int("cap", 75, "max samples per 0.02 CF bin (0 = no balancing)")
	out := flag.String("o", "", "output CSV path (default stdout)")
	strategy := cliflags.AddStrategy(flag.CommandLine)
	cacheDir := cliflags.AddCache(flag.CommandLine, "")
	obsFlags := cliflags.AddObs(flag.CommandLine, "")
	flag.Parse()

	// A nil recorder disables all recording; the default outputs stay
	// byte-identical when neither flag is given.
	rec := obsFlags.Recorder()

	cfg := dataset.DefaultConfig()
	cfg.Modules = *modules
	cfg.Seed = *seed
	switch *device {
	case "xc7z020":
		cfg.Device = fabric.XC7Z020()
	case "xc7z045":
		cfg.Device = fabric.XC7Z045()
	default:
		log.Fatalf("unknown device %q", *device)
	}
	searchStrategy, err := strategy.Parse()
	if err != nil {
		log.Fatal(err)
	}
	cfg.Search.Strategy = searchStrategy
	cfg.Search.Obs = rec
	if *cacheDir != "" {
		if cfg.Cache, err = implcache.Open(*cacheDir); err != nil {
			log.Fatal(err)
		}
	}

	samples, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if cache := cfg.Cache; cache != nil {
		st := cache.Stats()
		log.Printf("cache %s: %d hits, %d misses, %d stores, %d negative verdicts (this run)",
			*cacheDir, st.Hits, st.Misses, st.Stores, st.Negatives)
		if err := cache.FlushStats(); err != nil {
			log.Printf("cache stats flush: %v", err)
		}
		lt := cache.LifetimeStats()
		log.Printf("cache lifetime: %d hits, %d misses, %d stores, %d negative verdicts",
			lt.Hits, lt.Misses, lt.Stores, lt.Negatives)
	}
	log.Printf("labeled %d of %d modules", len(samples), *modules)
	if *capBin > 0 {
		samples = dataset.Balance(samples, *capBin, *seed)
		log.Printf("balanced to %d samples", len(samples))
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := obsFlags.Flush(rec, os.Stderr); err != nil {
		log.Fatal(err)
	}
	names := ml.All.Names()
	fmt.Fprintf(w, "name,%s,cf\n", strings.ReplaceAll(strings.Join(names, ","), "/", "_"))
	for _, s := range samples {
		vec := ml.All.Vector(s.Features)
		fmt.Fprintf(w, "%s", s.Name)
		for _, v := range vec {
			fmt.Fprintf(w, ",%g", v)
		}
		fmt.Fprintf(w, ",%.2f\n", s.CF)
	}
}
