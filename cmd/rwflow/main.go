// Command rwflow runs the full pre-implemented-block flow on the
// partitioned cnvW1A1 network: implement every unique block under the
// chosen correction-factor policy, then stitch all 175 instances onto
// the device with simulated annealing.
//
//	rwflow -device xc7z020 -mode minsweep
//	rwflow -device xc7z045 -mode estimator -train-modules 2000
//	rwflow -device xc7z020 -mode constant -cf 1.68
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"text/tabwriter"

	"macroflow"
	"macroflow/internal/cliflags"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rwflow: ")
	device := flag.String("device", "xc7z020", "target device (xc7z020, xc7z045)")
	mode := flag.String("mode", "minsweep", "CF policy: constant, minsweep, estimator")
	cf := flag.Float64("cf", 1.68, "correction factor for -mode constant")
	trainModules := flag.Int("train-modules", 1200, "dataset size for -mode estimator")
	epochs := flag.Int("epochs", 400, "NN training epochs for -mode estimator")
	seed := flag.Int64("seed", 1, "seed")
	iters := flag.Int("stitch-iters", 200000, "SA iterations")
	st := cliflags.AddStitch(flag.CommandLine, "")
	pt := cliflags.AddPartition(flag.CommandLine)
	gdIters := flag.Int("stitch-gd-iters", 0, "gradient-descent iterations for -stitch-backend analytic/hybrid (0 = default 256)")
	showMap := flag.Bool("map", false, "print the ASCII placement map")
	obsFlags := cliflags.AddObs(flag.CommandLine, "")
	flag.Parse()

	rec := obsFlags.Recorder()

	flow, err := macroflow.NewFlow(*device)
	if err != nil {
		log.Fatal(err)
	}
	flow.SetSearch(0.5, 0.02, 3.0)
	fmt.Printf("device: %+v\n", flow.Device())

	var cfMode macroflow.CFMode
	switch *mode {
	case "constant":
		cfMode = macroflow.ConstantCF(*cf)
	case "minsweep":
		cfMode = macroflow.MinSweepCF()
	case "estimator":
		est, rep, err := flow.TrainEstimator(macroflow.NeuralNetwork, macroflow.FeaturesAll,
			macroflow.TrainOptions{Modules: *trainModules, Seed: *seed, Epochs: *epochs})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("estimator trained: %.1f%% held-out mean relative error\n", 100*rep.MeanRelError)
		cfMode = macroflow.EstimatorCF(est)
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	stitch := macroflow.StitchOptions{
		Seed:     *seed,
		Anneal:   macroflow.AnnealOptions{Iterations: *iters},
		Analytic: macroflow.AnalyticOptions{GDIterations: *gdIters},
		Obs:      rec,
	}
	st.Apply(&stitch)
	var part macroflow.PartitionOptions
	pt.Apply(&part)
	res, err := flow.RunCNV(cfMode, macroflow.CNVOptions{
		Stitch:    stitch,
		Partition: part,
		Implement: macroflow.ImplementOptions{Obs: rec},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Per-block table, largest first.
	order := make([]int, len(res.Blocks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return res.Blocks[order[a]].UsedSlices > res.Blocks[order[b]].UsedSlices
	})
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "block\tinsts\tcf\truns\tslices\tpblock\tpath(ns)")
	for _, i := range order[:min(15, len(order))] {
		b := res.Blocks[i]
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%d\t%d\t%s\t%.2f\n",
			b.Name, res.Instances[i], b.CF, b.ToolRuns, b.UsedSlices, b.PBlock, b.LongestPathNS)
	}
	w.Flush()
	fmt.Printf("... (%d unique blocks total, %d tool runs)\n", len(res.Blocks), res.TotalToolRuns)
	if res.FirstRunRate > 0 {
		fmt.Printf("first-run success: %.1f%%\n", 100*res.FirstRunRate)
	}
	fmt.Printf("\nstitch (%s): %d placed, %d unplaced; cost %.0f; converged at %d/%d iters; %d illegal moves\n",
		res.Stitch.Backend, res.Stitch.Placed, res.Stitch.Unplaced, res.Stitch.FinalCost,
		res.Stitch.ConvergenceIter, res.Stitch.Iterations, res.Stitch.IllegalMoves)
	if res.Stitch.GDIters > 0 {
		fmt.Printf("analytic seed: %d gradient-descent iterations\n", res.Stitch.GDIters)
	}
	if pr := res.Partition; pr != nil {
		fmt.Printf("partition (%s): %d cut nets (weight %.0f, penalty %.2g); combined cost %.0f\n",
			pr.Backend, pr.CutNets, pr.CutWeight, pr.CutPenalty, pr.TotalCost)
		for _, m := range pr.Members {
			fmt.Printf("  %s: %d insts, %d/%d slices (%.0f%%), cost %.0f, %d unplaced\n",
				m.Name, m.Instances, m.UsedSlices, m.CapSlices, 100*m.Utilization,
				m.Stitch.FinalCost, m.Stitch.Unplaced)
		}
	}
	if len(res.Stitch.Chains) > 1 {
		fmt.Printf("chains: %d, %d accepted exchanges\n", len(res.Stitch.Chains), res.Stitch.Exchanges)
		for _, ch := range res.Stitch.Chains {
			fmt.Printf("  chain %d: T0=%.2f moves=%d accepts=%d illegal=%d exchanges=%d final=%.0f\n",
				ch.Chain, ch.InitTemp, ch.Moves, ch.Accepts, ch.IllegalMoves, ch.Exchanges, ch.FinalCost)
		}
	}
	if *showMap {
		fmt.Println(res.Stitch.Map)
	}
	if err := obsFlags.Flush(rec, os.Stderr); err != nil {
		log.Fatal(err)
	}
}
