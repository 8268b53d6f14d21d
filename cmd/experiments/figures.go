package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"macroflow"
	"macroflow/internal/cnv"
	"macroflow/internal/dataset"
	"macroflow/internal/fabric"
	"macroflow/internal/ml"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
)

// fig3 renders the footprints of weights_14 and mvau_18 implemented at a
// constant CF of 1.5 versus the minimal feasible CF (the paper's Fig. 3:
// irregular versus compact shapes).
func fig3(c *ctx) {
	dev := fabric.XC7Z020()
	d := cnv.CNVW1A1()
	cfg := pblock.DefaultConfig()
	labels := c.cnvLabels()
	for _, name := range []string{"weights_14", "mvau_18"} {
		ti := d.TypeIndex(name)
		m, rep, err := pblock.FrontEnd(d.Types[ti].Spec, nil)
		if err != nil {
			log.Fatal(err)
		}
		lbl := labels[ti]
		fmt.Printf("\n--- %s ---\n", name)
		if impl, err := pblock.Implement(dev, m, rep, 1.5, cfg); err == nil {
			fmt.Printf("CF 1.50: %d slices, irregularity %.3f\n%s\n",
				impl.Placement.UsedSlices, impl.Placement.Footprint.Irregularity(),
				renderFootprint(&impl.Placement.Footprint))
		} else {
			fmt.Printf("CF 1.50: infeasible (%v)\n", err)
		}
		fmt.Printf("CF %.2f (minimal): %d slices, irregularity %.3f\n%s\n",
			lbl.CF, lbl.Used, lbl.Impl.Placement.Footprint.Irregularity(),
			renderFootprint(&lbl.Impl.Placement.Footprint))
	}
}

// renderFootprint draws the column-interval outline, rows downsampled.
func renderFootprint(f *place.Footprint) string {
	step := 1 + f.Rows/24
	var sb strings.Builder
	for y := f.Rows - 1; y >= 0; y -= step {
		for _, col := range f.Cols {
			switch {
			case col.Empty() || y < col.Min || y > col.Max:
				sb.WriteByte('.')
			default:
				sb.WriteByte('#')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// fig4 prints the distribution of the optimal (minimal) CF over the
// cnvW1A1 blocks.
func fig4(c *ctx) {
	labels := c.cnvLabels()
	hist := map[int]int{}
	maxCF := 0.0
	for _, l := range labels {
		hist[dataset.Bin(l.CF)]++
		if l.CF > maxCF {
			maxCF = l.CF
		}
	}
	bins := make([]int, 0, len(hist))
	for b := range hist {
		bins = append(bins, b)
	}
	sort.Ints(bins)
	for _, b := range bins {
		fmt.Printf("  cf=%.2f : %2d %s\n", pblock.Tick(b).CF(), hist[b], bar(float64(hist[b]), 3))
	}
	below07 := 0
	for _, l := range labels {
		if l.CF < 0.7 {
			below07++
		}
	}
	fmt.Printf("\nblocks: %d unique; max optimal CF = %.2f; %d blocks below 0.7 "+
		"(small or BRAM/M-geometry driven)\n", len(labels), maxCF, below07)
	fmt.Println("(paper: values below 0.7 are small or BRAM-driven; maximum 1.68)")
}

// fig5 compares the three full-design outcomes on the xc7z020: the
// monolithic vendor placement, RW stitching with the constant worst-case
// CF, and RW stitching with per-block minimal CFs.
func fig5(c *ctx) {
	labels := c.cnvLabels()
	maxCF := 0.0
	for _, l := range labels {
		if l.CF > maxCF {
			maxCF = l.CF
		}
	}

	fl, err := newFlow("xc7z020")
	if err != nil {
		log.Fatal(err)
	}
	util, used, err := fl.RunCNVBaseline()
	if err != nil {
		log.Fatalf("baseline: %v", err)
	}
	fmt.Printf("a) monolithic (AMD-style): fully placed, %d slices = %.2f%% of device\n", used, 100*util)

	resC := runCNV(fl, macroflow.ConstantCF(maxCF), c)
	fmt.Printf("b) RW, constant CF %.2f: %d placed, %d unplaced (free tiles %d, largest free rect %d)\n",
		maxCF, resC.Stitch.Placed, resC.Stitch.Unplaced, resC.Stitch.FreeTiles, resC.Stitch.LargestFreeRect)

	resM := runCNV(fl, macroflow.MinSweepCF(), c)
	fmt.Printf("c) RW, minimal CF:      %d placed, %d unplaced (free tiles %d, largest free rect %d)\n",
		resM.Stitch.Placed, resM.Stitch.Unplaced, resM.Stitch.FreeTiles, resM.Stitch.LargestFreeRect)

	gain := float64(resM.Stitch.Placed)/float64(resC.Stitch.Placed) - 1
	fmt.Printf("\nminimal CF places %.1f%% more blocks (paper: 15%%, 107 vs 123 placed)\n", 100*gain)
	fmt.Printf("\nconstant-CF map:\n%s\nminimal-CF map:\n%s\n", resC.Stitch.Map, resM.Stitch.Map)
}

// fig7 reports the dataset design-space coverage: the LUT/FF/carry mix
// of the generated modules.
func fig7(c *ctx) {
	samples, _, _, _ := c.dataset()
	maxLUT := 0
	var lutBins [6]int
	mix := map[string]int{}
	for _, s := range samples {
		if s.Stats.LUTs > maxLUT {
			maxLUT = s.Stats.LUTs
		}
		b := s.Stats.LUTs * 6 / 5001
		if b > 5 {
			b = 5
		}
		lutBins[b]++
		key := ""
		if s.Stats.LUTs > 0 {
			key += "L"
		}
		if s.Stats.FFs > 0 {
			key += "F"
		}
		if s.Stats.Carrys > 0 {
			key += "C"
		}
		if s.Stats.MDemand() > 0 {
			key += "M"
		}
		mix[key]++
	}
	fmt.Printf("modules: %d, largest %d LUTs (paper: ~2,000 modules up to ~5,000 LUTs)\n\n", len(samples), maxLUT)
	fmt.Println("LUT size histogram:")
	for i, n := range lutBins {
		fmt.Printf("  %4d..%4d LUTs: %4d %s\n", i*834, (i+1)*834, n, bar(float64(n), 0.1))
	}
	fmt.Println("\nresource-mix coverage (L=LUT F=FF C=carry M=LUTRAM/SRL):")
	keys := make([]string, 0, len(mix))
	for k := range mix {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-5s: %4d %s\n", k, mix[k], bar(float64(mix[k]), 0.1))
	}
}

// fig8 prints the balanced CF distribution of the training data.
func fig8(c *ctx) {
	samples, balanced, _, _ := c.dataset()
	fmt.Printf("raw %d samples -> balanced %d (cap 75 per 0.02 bin; paper: 2,000 -> 1,500)\n\n",
		len(samples), len(balanced))
	hist := dataset.Histogram(balanced)
	bins := make([]int, 0, len(hist))
	for b := range hist {
		bins = append(bins, b)
	}
	sort.Ints(bins)
	for _, b := range bins {
		fmt.Printf("  cf=%.2f : %3d %s\n", pblock.Tick(b).CF(), hist[b], bar(float64(hist[b]), 0.8))
	}
}

// fig9 prints the decision-tree feature importance for every feature
// set (the paper's Fig. 9).
func fig9(c *ctx) {
	_, _, train, test := c.dataset()
	for _, fs := range []ml.FeatureSet{ml.Classical, ml.ClassicalPlacement, ml.Additional, ml.All} {
		dt := &ml.DecisionTree{MaxDepth: 20, Seed: c.seed}
		err := evalOn(dt, fs, train, test)
		fmt.Printf("\n%s (error %.1f%%):\n", fs, 100*err)
		printImportance(fs.Names(), dt.FeatureImportance())
	}
	fmt.Println("\n(paper: the relative 'Additional' features dominate; Carry/All ~0.5)")
}

func printImportance(names []string, imp []float64) {
	type pair struct {
		name string
		v    float64
	}
	pairs := make([]pair, len(imp))
	for i := range imp {
		pairs[i] = pair{names[i], imp[i]}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			return pairs[i].v > pairs[j].v
		}
		return pairs[i].name < pairs[j].name
	})
	for _, p := range pairs {
		if p.v < 0.004 {
			continue
		}
		fmt.Printf("  %-14s %.3f %s\n", p.name, p.v, bar(p.v, 60))
	}
}

// fig10 prints predicted versus actual CF over the test split for the
// tree-based estimators on classical and relative features.
func fig10(c *ctx) {
	_, _, train, test := c.dataset()
	// Bin actual CF, report mean prediction per bin per configuration.
	type cfgDef struct {
		name string
		fs   ml.FeatureSet
	}
	cfgs := []cfgDef{
		{"RF classical", ml.Classical},
		{"RF additional", ml.Additional},
		{"RF all", ml.All},
	}
	preds := make([][]float64, len(cfgs))
	for i, cd := range cfgs {
		rf := &ml.RandomForest{Trees: c.trees, MaxDepth: 20, Seed: c.seed}
		Xtr, ytr := dataset.Vectors(cd.fs, train)
		Xte, _ := dataset.Vectors(cd.fs, test)
		if err := rf.Fit(Xtr, ytr); err != nil {
			log.Fatal(err)
		}
		preds[i] = ml.PredictAll(rf, Xte)
	}
	_, yte := dataset.Vectors(ml.All, test)

	byBin := map[int][]int{}
	for i, y := range yte {
		byBin[dataset.Bin(y)/5] = append(byBin[dataset.Bin(y)/5], i) // 0.1-wide bins
	}
	bins := make([]int, 0, len(byBin))
	for b := range byBin {
		bins = append(bins, b)
	}
	sort.Ints(bins)
	fmt.Printf("%-10s %5s", "actual CF", "n")
	for _, cd := range cfgs {
		fmt.Printf("  %-14s", cd.name)
	}
	fmt.Println()
	for _, b := range bins {
		idx := byBin[b]
		fmt.Printf("%-10.2f %5d", float64(b)/10, len(idx))
		for ci := range cfgs {
			mean := 0.0
			for _, i := range idx {
				mean += preds[ci][i]
			}
			fmt.Printf("  %-14.3f", mean/float64(len(idx)))
		}
		fmt.Println()
	}
	fmt.Println("\n(paper Fig. 10: relative features track high CFs better than classical)")
}
