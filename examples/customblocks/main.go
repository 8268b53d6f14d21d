// customblocks shows how to apply the flow to a user-defined block
// library: a small video pipeline with a line buffer, a convolution
// kernel, a gamma lookup and a statistics block. Each block's minimal
// PBlock is measured, a decision-tree estimator is inspected for what
// drives the correction factors, and the blocks are implemented for
// stitching.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"macroflow"
)

func library() map[string]*macroflow.Spec {
	return map[string]*macroflow.Spec{
		// Three-line buffer for a 3x3 kernel window: SRL-heavy (M slices).
		"linebuf": macroflow.NewSpec("linebuf").
			SRLs(24, 64, 2).
			Logic(80, 4, 2),
		// 3x3 convolution: multiplier partial products and adder trees
		// (carry-chain heavy).
		"conv3x3": macroflow.NewSpec("conv3x3").
			Logic(600, 5, 4).
			SumOfSquares(10, 4).
			ShiftRegs(8, 24, 2, 3),
		// Gamma correction: a pure lookup memory.
		"gamma": macroflow.NewSpec("gamma").
			DistributedMemory(10, 256),
		// Histogram/statistics: wide counters (carry) with many banks
		// and control sets.
		"stats": macroflow.NewSpec("stats").
			SumOfSquares(16, 2).
			ShiftRegs(16, 8, 8, 4).
			Memory(16, 64),
	}
}

func main() {
	log.SetFlags(0)
	flow, err := macroflow.NewFlow("xc7z020")
	if err != nil {
		log.Fatal(err)
	}
	flow.SetSearch(0.9, 0.02, 3.0)

	// Train a decision tree — small, inspectable, and per Table II only
	// slightly behind the forest.
	est, rep, err := flow.TrainEstimator(macroflow.DecisionTree, macroflow.FeaturesAdditional,
		macroflow.TrainOptions{Modules: 800, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decision tree trained: %.1f%% held-out error\n", 100*rep.MeanRelError)
	fmt.Println("what drives the correction factor (feature importance):")
	for _, name := range rep.TopFeatures()[:4] {
		fmt.Printf("  %-14s %.3f\n", name, rep.Importance[name])
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "\nblock\tpredicted CF\tfinal CF\truns\tslices\tpblock")
	for _, name := range []string{"linebuf", "conv3x3", "gamma", "stats"} {
		s := library()[name]
		pred, err := flow.PredictSpec(est, s)
		if err != nil {
			log.Fatal(err)
		}
		r, err := flow.ImplementBlock(s, macroflow.EstimatorCF(est))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%d\t%d\t%s\n",
			name, pred, r.CF, r.ToolRuns, r.UsedSlices, r.PBlock)
	}
	w.Flush()
}
