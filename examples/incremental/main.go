// incremental demonstrates the reason pre-implemented-block flows exist
// (the paper's Introduction): when one block of a design changes during
// design-space exploration, every other block's placed-and-routed result
// is reused from the cache, so the recompile costs a fraction of the
// first compile.
//
// With -cache <dir> the cache persists on disk: a second run of this
// program (a "new process" in a real DSE loop) serves every unchanged
// block from the persistent layer and performs zero place-and-route
// runs for them. The bisect search strategy speeds up the cold compiles
// too, finding the same minimal CFs in O(log) oracle runs.
package main

import (
	"flag"
	"fmt"
	"log"

	"macroflow"
)

// pipeline builds a small stream-processing design: source -> N workers
// -> sink, where the worker block is the part being explored.
func pipeline(workerSIMD int) *macroflow.Design {
	d := macroflow.NewDesign()
	src := d.AddBlockType(macroflow.NewSpec("source").
		Logic(120, 4, 3).ShiftRegs(4, 8, 1, 2))
	worker := d.AddBlockType(macroflow.NewSpec(fmt.Sprintf("worker_simd%d", workerSIMD)).
		Logic(4*workerSIMD, 5, 3).
		SumOfSquares(8, 4).
		ShiftRegs(8, 16, 2, 2).
		Memory(workerSIMD/4, 64))
	sink := d.AddBlockType(macroflow.NewSpec("sink").
		Logic(90, 4, 2).SumOfSquares(6, 1))

	s, _ := d.AddInstance(src, "source")
	k, _ := d.AddInstance(sink, "sink")
	for i := 0; i < 12; i++ {
		w, _ := d.AddInstance(worker, fmt.Sprintf("worker_%d", i))
		_ = d.Connect(s, w, 32)
		_ = d.Connect(w, k, 16)
	}
	return d
}

func main() {
	log.SetFlags(0)
	cacheDir := flag.String("cache", "", "persistent cache directory; rerun with the same directory to see cross-process hits")
	bisect := flag.Bool("bisect", true, "use the bisect min-CF search (same CFs, fewer oracle runs)")
	flag.Parse()

	flow, err := macroflow.NewFlow("xc7z020")
	if err != nil {
		log.Fatal(err)
	}
	flow.SetSearch(0.9, 0.02, 3.0)
	if *bisect {
		flow.SetSearchStrategy(macroflow.SearchBisect)
	}

	var cache *macroflow.BlockCache
	if *cacheDir != "" {
		cache, err = macroflow.NewPersistentBlockCache(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		cache = macroflow.NewBlockCache()
	}

	// First compile: everything is implemented from scratch — unless a
	// previous process already populated the persistent cache.
	first, err := flow.Compile(pipeline(32), macroflow.MinSweepCF(),
		macroflow.CompileOptions{
			Implement: macroflow.ImplementOptions{Cache: cache},
			Stitch:    macroflow.StitchOptions{Seed: 1, Anneal: macroflow.AnnealOptions{Iterations: 40000}},
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial compile:   %3d tool runs, %d cache hits (%d from disk), %d/%d placed, cost %.0f\n",
		first.ToolRuns, first.CacheHits, first.Cache.DiskHits, first.Stitch.Placed,
		first.Stitch.Placed+first.Stitch.Unplaced, first.Stitch.FinalCost)

	// The DSE step: only the worker block changes (SIMD 32 -> 48).
	// Source and sink come from the cache; only the worker re-implements.
	second, err := flow.Compile(pipeline(48), macroflow.MinSweepCF(),
		macroflow.CompileOptions{
			Implement: macroflow.ImplementOptions{Cache: cache},
			Stitch:    macroflow.StitchOptions{Seed: 1, Anneal: macroflow.AnnealOptions{Iterations: 40000}},
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("worker changed:    %3d tool runs, %d cache hits (%d from disk), %d/%d placed, cost %.0f\n",
		second.ToolRuns, second.CacheHits, second.Cache.DiskHits, second.Stitch.Placed,
		second.Stitch.Placed+second.Stitch.Unplaced, second.Stitch.FinalCost)

	// Recompiling the unchanged design costs no tool runs at all.
	third, err := flow.Compile(pipeline(48), macroflow.MinSweepCF(),
		macroflow.CompileOptions{
			Implement: macroflow.ImplementOptions{Cache: cache},
			Stitch:    macroflow.StitchOptions{Seed: 1, Anneal: macroflow.AnnealOptions{Iterations: 40000}},
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unchanged rebuild: %3d tool runs, %d cache hits\n",
		third.ToolRuns, third.CacheHits)

	fmt.Printf("\ncached unique blocks: %d\n", cache.Len())
	st := cache.Stats()
	fmt.Printf("cache: %d memory hits, %d disk hits, %d misses, %d stores\n",
		st.MemHits, st.DiskHits, st.Misses, st.Stores)
	if first.ToolRuns > 0 {
		fmt.Printf("recompile-after-change cost: %.0f%% of the initial compile\n",
			100*float64(second.ToolRuns)/float64(first.ToolRuns))
	} else {
		fmt.Println("initial compile was fully served from the persistent cache")
	}
}
