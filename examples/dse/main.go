// dse demonstrates the application scenario that motivates the paper
// (§III): design-space exploration of an accelerator block. During DSE a
// designer recompiles variants of one module over and over; a learned
// correction-factor estimator cuts the place-and-route attempts per
// variant, which is exactly where the flow's run-time goes.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"macroflow"
)

// variant builds one candidate configuration of a matrix-vector unit:
// pe parallel elements of simd-wide binarized dot products.
func variant(pe, simd int) *macroflow.Spec {
	return macroflow.NewSpec(fmt.Sprintf("mvu_pe%d_simd%d", pe, simd)).
		Logic(pe*simd, 5, 3).     // XNOR/popcount cloud
		SumOfSquares(8, pe).      // accumulators (carry chains)
		ShiftRegs(8, 4*pe, 2, 2). // stream pipeline
		Memory(simd/2, 64*pe)     // local weight buffer
}

func main() {
	log.SetFlags(0)
	flow, err := macroflow.NewFlow("xc7z020")
	if err != nil {
		log.Fatal(err)
	}
	flow.SetSearch(0.9, 0.02, 3.0)

	// One-time investment: train the random-forest estimator on
	// generated RTL (no knowledge of the MVU family).
	fmt.Println("training the random-forest estimator ...")
	est, rep, err := flow.TrainEstimator(macroflow.RandomForest, macroflow.FeaturesAll,
		macroflow.TrainOptions{Modules: 800, Seed: 1, Trees: 200})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("held-out mean relative error: %.1f%%\n\n", 100*rep.MeanRelError)

	// The DSE loop: sweep the configuration space, implementing every
	// variant twice — estimator-seeded versus exhaustive sweep — and
	// count the place-and-route attempts each policy needs.
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "variant\tpredicted CF\tfinal CF\truns (estimator)\truns (sweep)\tslices")
	totalEst, totalSweep := 0, 0
	for _, pe := range []int{2, 4, 8} {
		for _, simd := range []int{16, 32, 64} {
			s := variant(pe, simd)
			pred, err := flow.PredictSpec(est, s)
			if err != nil {
				log.Fatal(err)
			}
			re, err := flow.ImplementBlock(s, macroflow.EstimatorCF(est))
			if err != nil {
				log.Fatal(err)
			}
			rs, err := flow.ImplementBlock(s, macroflow.MinSweepCF())
			if err != nil {
				log.Fatal(err)
			}
			totalEst += re.ToolRuns
			totalSweep += rs.ToolRuns
			fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%d\t%d\t%d\n",
				s.Name(), pred, re.CF, re.ToolRuns, rs.ToolRuns, re.UsedSlices)
		}
	}
	w.Flush()
	fmt.Printf("\ntotal place-and-route attempts: estimator %d, sweep %d (%.1fx fewer)\n",
		totalEst, totalSweep, float64(totalSweep)/float64(totalEst))
}
