package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"macroflow/internal/baseline"
	"macroflow/internal/cnv"
	"macroflow/internal/dataset"
	"macroflow/internal/fabric"
	"macroflow/internal/ml"
	"macroflow/internal/pblock"
	"macroflow/internal/timing"
)

// table1 regenerates Table I: per-module slices and longest path for
// mvau_18 and weights_14 under RW PBlocks at CF 1.5 and at the minimal
// CF, against the per-instance monolithic ("AMD EDA") results.
func table1(c *ctx) {
	dev := fabric.XC7Z020()
	d := cnv.CNVW1A1()
	cfg := pblock.DefaultConfig()
	mdl := timing.DefaultModel()
	labels := c.cnvLabels()

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "module\tRW slices\t\tRW longest path (ns)\t\tAMD EDA slices")
	fmt.Fprintf(w, "CF*\t1.5\tmin\t1.5\tmin\t-\n")
	for _, name := range []string{"mvau_18", "weights_14"} {
		ti := d.TypeIndex(name)
		m, rep, err := pblock.FrontEnd(d.Types[ti].Spec, nil)
		if err != nil {
			log.Fatal(err)
		}

		var s15, sMin int
		var t15, tMin float64
		if impl, err := pblock.Implement(dev, m, rep, 1.5, cfg); err == nil {
			s15 = impl.Placement.UsedSlices
			t15 = timing.LongestPath(dev, impl.Placement, impl.Route, mdl)
		}
		lbl := labels[ti]
		sMin = lbl.Used
		tMin = timing.LongestPath(dev, lbl.Impl.Placement, lbl.Impl.Route, mdl)

		// AMD: every instance implemented separately in context.
		amd := ""
		for ii := range d.Instances {
			if d.Instances[ii].Type != ti {
				continue
			}
			r, err := baseline.ImplementInstance(dev, d, ii)
			if err != nil {
				log.Fatal(err)
			}
			if amd != "" {
				amd += ","
			}
			amd += fmt.Sprint(r.UsedSlices)
		}
		fmt.Fprintf(w, "%s\t%d\t%d (cf %.2f)\t%.3f\t%.3f\t%s\n",
			name, s15, sMin, lbl.CF, t15, tMin, amd)
	}
	w.Flush()
	fmt.Println("\n(paper: mvau_18 31/28 slices, 4.829/5.769 ns, AMD 30,34,32,29;")
	fmt.Println(" weights_14 1529/1371 slices, 10.767/13.478 ns, AMD 1430)")
}

// table2 regenerates Table II: held-out mean relative error of the
// decision tree, random forest and neural network over the four feature
// sets, plus the nine-input linear regression baseline.
func table2(c *ctx) {
	_, _, train, test := c.dataset()
	sets := []ml.FeatureSet{ml.Classical, ml.ClassicalPlacement, ml.Additional, ml.All}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "Features\t")
	for _, fs := range sets {
		fmt.Fprintf(w, "%s\t", fs)
	}
	fmt.Fprintln(w)

	fmt.Fprint(w, "Decision Tree Error\t")
	for _, fs := range sets {
		dt := &ml.DecisionTree{MaxDepth: 20, Seed: c.seed}
		fmt.Fprintf(w, "%.1f%%\t", 100*evalOn(dt, fs, train, test))
	}
	fmt.Fprintln(w)

	fmt.Fprint(w, "Random Forest Error\t")
	for _, fs := range sets {
		rf := &ml.RandomForest{Trees: c.trees, MaxDepth: 20, Seed: c.seed}
		fmt.Fprintf(w, "%.1f%%\t", 100*evalOn(rf, fs, train, test))
	}
	fmt.Fprintln(w)

	fmt.Fprint(w, "Neural Network Error\t-\t-\t-\t")
	nn := &ml.NeuralNet{Hidden: 25, Epochs: c.epochs, Seed: c.seed}
	fmt.Fprintf(w, "%.1f%%\t\n", 100*evalOn(nn, ml.All, train, test))
	w.Flush()

	lr := &ml.LinearRegression{}
	fmt.Printf("\nLinear Regression (9 inputs): %.1f%% mean relative error\n",
		100*evalOn(lr, ml.LinRegSet, train, test))
	fmt.Println("\n(paper: DT 7.4/7.4/5.4/5.2, RF 6.2/5.9/4.8/4.9, NN 5.1, linreg 9.4)")
}

func evalOn(m ml.Model, fs ml.FeatureSet, train, test []dataset.Sample) float64 {
	Xtr, ytr := dataset.Vectors(fs, train)
	Xte, yte := dataset.Vectors(fs, test)
	if err := m.Fit(Xtr, ytr); err != nil {
		log.Fatal(err)
	}
	return ml.MeanRelError(ml.PredictAll(m, Xte), yte)
}
