package main

import (
	"fmt"
	"log"
	"sort"

	"macroflow"
	"macroflow/internal/dataset"
	"macroflow/internal/ml"
)

func newFlow(device string) (*macroflow.Flow, error) {
	f, err := macroflow.NewFlow(device)
	if err != nil {
		return nil, err
	}
	f.SetSearch(cnvSearchStart, 0.02, 3.0)
	return f, nil
}

func constantMode(cf float64) macroflow.CFMode { return macroflow.ConstantCF(cf) }
func minSweepMode() macroflow.CFMode           { return macroflow.MinSweepCF() }

func runCNV(f *macroflow.Flow, mode macroflow.CFMode, c *ctx) *macroflow.CNVResult {
	stitch := c.stitchOptions(c.seed)
	stitch.Check = c.check
	res, err := f.RunCNV(mode, macroflow.CNVOptions{
		Stitch:    stitch,
		Partition: c.partitionOptions(),
		Implement: macroflow.ImplementOptions{Obs: c.rec, Check: c.check},
	})
	if err != nil {
		log.Fatal(err)
	}
	// An audited run that found violations is a broken flow, not a
	// result: print the full report and abort.
	if res.Verify != nil {
		log.Print(res.Verify.String())
		if err := res.Verify.Err(); err != nil {
			log.Fatal(err)
		}
	}
	return res
}

// trainOn fits a model on the generated dataset (all of it — the cnv
// blocks are the held-out test set here, as in §VIII).
func (c *ctx) trainOn(model ml.Model, fs ml.FeatureSet) ml.Model {
	_, balanced, _, _ := c.dataset()
	X, y := dataset.Vectors(fs, balanced)
	if err := model.Fit(X, y); err != nil {
		log.Fatal(err)
	}
	return model
}

// fig11 evaluates the linear-regression and neural-network estimators on
// the cnvW1A1 blocks as an unseen test set (paper: median absolute
// errors of 11.03% and 9.5%).
func fig11(c *ctx) {
	feats, cfs, names := c.cnvFeatureSamples()
	fmt.Printf("evaluated modules: %d (paper: 63, after removing 1-2 tile blocks)\n\n", len(names))

	lr := c.trainOn(&ml.LinearRegression{}, ml.LinRegSet).(*ml.LinearRegression)
	lrPred := make([]float64, len(feats))
	for i, f := range feats {
		lrPred[i] = lr.Predict(ml.LinRegSet.Vector(f))
	}
	fmt.Printf("linear regression: median abs rel error %.2f%% (paper 11.03%%)\n",
		100*ml.MedianAbsRelError(lrPred, cfs))

	nn := c.trainOn(&ml.NeuralNet{Hidden: 25, Epochs: c.epochs, Seed: c.seed}, ml.Additional).(*ml.NeuralNet)
	nnPred := make([]float64, len(feats))
	for i, f := range feats {
		nnPred[i] = nn.Predict(ml.Additional.Vector(f))
	}
	fmt.Printf("neural network (additional features): median abs rel error %.2f%% (paper 9.5%%)\n",
		100*ml.MedianAbsRelError(nnPred, cfs))

	fmt.Printf("NN estimates within 4%% of the minimal CF: %.1f%% of modules (paper 31.75%%)\n",
		100*ml.FractionWithin(nnPred, cfs, 0.04))

	// Actual-vs-estimated scatter, sorted by actual CF (Fig. 11 data).
	type row struct {
		name     string
		cf, pred float64
	}
	rows := make([]row, len(names))
	for i := range names {
		rows[i] = row{names[i], cfs[i], lrPred[i]}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].cf < rows[j].cf })
	fmt.Println("\nlinear regression, actual vs estimated (sorted by actual):")
	for _, r := range rows {
		fmt.Printf("  %-14s actual=%.2f est=%.2f\n", r.name, r.cf, r.pred)
	}
}

// fig12 trains the random forest on the generated dataset with the cnv
// blocks as test set and reports the feature importance (paper Fig. 12).
func fig12(c *ctx) {
	feats, cfs, _ := c.cnvFeatureSamples()
	for _, fs := range []ml.FeatureSet{ml.Additional, ml.All} {
		rf := c.trainOn(&ml.RandomForest{Trees: c.trees, MaxDepth: 20, Seed: c.seed}, fs).(*ml.RandomForest)
		pred := make([]float64, len(feats))
		for i, f := range feats {
			pred[i] = rf.Predict(fs.Vector(f))
		}
		fmt.Printf("\nRF on %s: cnv median abs rel error %.2f%%\n", fs, 100*ml.MedianAbsRelError(pred, cfs))
		printImportance(fs.Names(), rf.FeatureImportance())
	}
	fmt.Println("\n(paper: relative features dominate the decision)")
}

// fig13 runs the §VIII end-to-end comparison on the xc7z045: blocks
// implemented with the NN estimator versus a constant CF of 1.68, then
// stitched; reports SA convergence, cost and the placement maps.
func fig13(c *ctx) {
	f45, err := newFlow("xc7z045")
	if err != nil {
		log.Fatal(err)
	}
	est := c.nnEstimator(f45)

	// The SA is stochastic; average the comparison over three seeds
	// (blocks are deterministic, so only the stitch varies).
	const seeds = 3
	var resE, resC *macroflow.CNVResult
	var convE, convC, costE, costC, illE, illC float64
	for s := int64(0); s < seeds; s++ {
		re, err := f45.RunCNV(macroflow.EstimatorCF(est), macroflow.CNVOptions{
			Stitch:    c.stitchOptions(c.seed + s),
			Implement: macroflow.ImplementOptions{Obs: c.rec},
		})
		if err != nil {
			log.Fatal(err)
		}
		rc, err := f45.RunCNV(macroflow.ConstantCF(1.68), macroflow.CNVOptions{
			Stitch:    c.stitchOptions(c.seed + s),
			Implement: macroflow.ImplementOptions{Obs: c.rec},
		})
		if err != nil {
			log.Fatal(err)
		}
		// Time-to-equal-quality: how fast each run reaches the OTHER
		// run's final cost (capped at the budget when never reached).
		reach := func(r *macroflow.CNVResult, cost float64) float64 {
			if it := r.Stitch.IterToReach(cost); it >= 0 {
				return float64(it)
			}
			return float64(r.Stitch.Iterations)
		}
		convE += reach(re, rc.Stitch.FinalCost)
		convC += float64(rc.Stitch.ConvergenceIter)
		costE += re.Stitch.FinalCost
		costC += rc.Stitch.FinalCost
		illE += float64(re.Stitch.IllegalMoves)
		illC += float64(rc.Stitch.IllegalMoves)
		resE, resC = re, rc
	}

	fmt.Printf("estimator: placed %d/%d, first-run success %.1f%% (paper 52.7%%)\n",
		resE.Stitch.Placed, resE.Stitch.Placed+resE.Stitch.Unplaced, 100*resE.FirstRunRate)
	fmt.Printf("constant 1.68: placed %d/%d\n",
		resC.Stitch.Placed, resC.Stitch.Placed+resC.Stitch.Unplaced)
	fmt.Printf("\nmeans over %d stitch seeds:\n", seeds)
	fmt.Printf("SA time-to-equal-quality: estimator reaches the constant flow's final cost\n")
	fmt.Printf("  after %.0f iters; the constant flow needs %.0f -> %.2fx faster (paper 1.37x)\n",
		convE/seeds, convC/seeds, convC/convE)
	fmt.Printf("SA final cost: estimator %.0f, constant %.0f -> %.0f%% lower (paper 40%%)\n",
		costE/seeds, costC/seeds, 100*(1-costE/costC))
	fmt.Printf("illegal moves: estimator %.0f, constant %.0f\n", illE/seeds, illC/seeds)
	fmt.Printf("\nconstant-CF map (last seed):\n%s\nestimator map (last seed):\n%s\n",
		resC.Stitch.Map, resE.Stitch.Map)
}

// nnEstimator trains the §VIII neural-network estimator on the given
// flow's device.
func (c *ctx) nnEstimator(f *macroflow.Flow) *macroflow.Estimator {
	est, rep, err := f.TrainEstimator(macroflow.NeuralNetwork, macroflow.FeaturesAll,
		macroflow.TrainOptions{Modules: c.modules, Seed: c.seed, Epochs: c.epochs})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NN estimator trained: held-out mean relative error %.1f%%\n", 100*rep.MeanRelError)
	return est
}

// toolruns compares the implementation effort (place-and-route attempts)
// of the estimator-seeded flow against the constant-CF sweep starting at
// 0.9 (paper: the constant approach needs 1.8x as many runs).
func toolruns(c *ctx) {
	f45, err := macroflow.NewFlow("xc7z045")
	if err != nil {
		log.Fatal(err)
	}
	f45.SetSearch(0.9, 0.02, 3.0)
	est := c.nnEstimator(f45)

	resE, err := f45.RunCNV(macroflow.EstimatorCF(est), macroflow.CNVOptions{
		SkipStitch: true,
		Stitch:     macroflow.StitchOptions{Seed: c.seed},
		Implement:  macroflow.ImplementOptions{Obs: c.rec},
	})
	if err != nil {
		log.Fatal(err)
	}
	resS, err := f45.RunCNV(macroflow.MinSweepCF(), macroflow.CNVOptions{
		SkipStitch: true,
		Stitch:     macroflow.StitchOptions{Seed: c.seed},
		Implement:  macroflow.ImplementOptions{Obs: c.rec},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimator-seeded: %d tool runs, %.1f%% of blocks feasible on the first run\n",
		resE.TotalToolRuns, 100*resE.FirstRunRate)
	fmt.Printf("constant sweep from 0.9: %d tool runs\n", resS.TotalToolRuns)
	fmt.Printf("ratio: %.2fx (paper: 1.8x)\n",
		float64(resS.TotalToolRuns)/float64(resE.TotalToolRuns))
}
