// cnvflow reproduces the paper's headline case study end to end: the
// partitioned cnvW1A1 binarized CNN (175 block instances, 74 unique
// types) compiled with the pre-implemented-block flow on an xc7z020,
// comparing a constant worst-case correction factor against per-block
// minimal CFs — the Fig. 5 experiment.
package main

import (
	"fmt"
	"log"

	"macroflow"
)

func main() {
	log.SetFlags(0)
	flow, err := macroflow.NewFlow("xc7z020")
	if err != nil {
		log.Fatal(err)
	}
	flow.SetSearch(0.5, 0.02, 3.0)

	// Reference point: the monolithic vendor-style compile places the
	// whole network flat on the device.
	util, used, err := flow.RunCNVBaseline()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monolithic baseline: fully placed, %d slices (%.1f%% of device)\n\n", used, 100*util)

	// Per-block minimal CFs.
	minRes, err := flow.RunCNV(macroflow.MinSweepCF(), macroflow.CNVOptions{Stitch: macroflow.StitchOptions{Seed: 1, Anneal: macroflow.AnnealOptions{Iterations: 150000}}})
	if err != nil {
		log.Fatal(err)
	}
	maxCF := 0.0
	for _, b := range minRes.Blocks {
		if b.CF > maxCF {
			maxCF = b.CF
		}
	}
	fmt.Printf("per-block minimal CF (max %.2f): %d placed / %d unplaced, cost %.0f\n",
		maxCF, minRes.Stitch.Placed, minRes.Stitch.Unplaced, minRes.Stitch.FinalCost)

	// The constant-CF alternative must use the worst-case factor so
	// every block implements.
	constRes, err := flow.RunCNV(macroflow.ConstantCF(maxCF), macroflow.CNVOptions{Stitch: macroflow.StitchOptions{Seed: 1, Anneal: macroflow.AnnealOptions{Iterations: 150000}}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("constant CF %.2f:           %d placed / %d unplaced, cost %.0f\n",
		maxCF, constRes.Stitch.Placed, constRes.Stitch.Unplaced, constRes.Stitch.FinalCost)

	fmt.Printf("\ntailored PBlocks place %.1f%% more block instances\n",
		100*(float64(minRes.Stitch.Placed)/float64(constRes.Stitch.Placed)-1))
	fmt.Printf("\nplacement with minimal CFs:\n%s", minRes.Stitch.Map)
}
