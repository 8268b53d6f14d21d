package main

import (
	"fmt"
	"log"
	"math/rand"

	"macroflow"
	"macroflow/internal/fabric"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/route"
	"macroflow/internal/rtlgen"
)

// ablation quantifies how much each §V mechanism contributes to the
// minimal correction factor by re-measuring a module sample with the
// control-set rule and/or the routing feasibility check disabled.
func ablation(c *ctx) {
	dev := fabric.XC7Z020()
	rng := rand.New(rand.NewSource(c.seed + 77))
	n := 150
	if c.modules < 800 {
		n = 60 // quick mode
	}
	specs := rtlgen.GenerateMix(rng, n)

	type variant struct {
		name string
		noCS bool
		noRt bool
	}
	variants := []variant{
		{"full model", false, false},
		{"no control-set rule", true, false},
		{"no routing check", false, true},
		{"neither", true, true},
	}

	type row struct {
		cfs [4]float64
		ok  bool
	}
	rows := make([]row, len(specs))
	c.rec.Lanes("ablation worker", 0, len(specs), func(i, _ int) {
		m, rep, err := pblock.FrontEnd(specs[i], nil)
		if err != nil || rep.EstSlices < 6 {
			return
		}
		search := pblock.SearchConfig{Start: 0.5, Step: 0.02, Max: 3.0}
		ok := true
		var cfs [4]float64
		for vi, v := range variants {
			cfg := pblock.DefaultConfig()
			cfg.Place.IgnoreControlSets = v.noCS
			cfg.Route.AssumeRoutable = v.noRt
			res, err := pblock.MinCF(dev, m, rep, search, cfg)
			if err != nil {
				ok = false
				break
			}
			cfs[vi] = res.CF
		}
		rows[i] = row{cfs, ok}
	})

	var sums [4]float64
	cnt := 0
	for _, r := range rows {
		if !r.ok {
			continue
		}
		cnt++
		for vi := range sums {
			sums[vi] += r.cfs[vi]
		}
	}
	if cnt == 0 {
		log.Fatal("ablation: no modules labeled")
	}
	fmt.Printf("modules measured: %d\n\n", cnt)
	base := sums[0] / float64(cnt)
	for vi, v := range variants {
		mean := sums[vi] / float64(cnt)
		fmt.Printf("  %-22s mean minimal CF %.3f  (delta vs full: %+.3f)\n",
			v.name, mean, mean-base)
	}
	fmt.Println("\nThe gaps quantify the §V factors: the control-set rule and the")
	fmt.Println("routing model each push the minimal CF up; together they explain")
	fmt.Println("most of the margin above 1.0 that the paper's estimator learns.")
}

// overhead sweeps the §VIII estimator bias knob on the cnvW1A1 blocks:
// a positive bias buys first-run success (run-time), a negative one buys
// tighter PBlocks (density).
func overhead(c *ctx) {
	f, err := macroflow.NewFlow("xc7z020")
	if err != nil {
		log.Fatal(err)
	}
	f.SetSearch(0.9, 0.02, 3.0)
	base := c.nnEstimator(f)

	fmt.Printf("\n%-8s %-10s %-12s %-12s\n", "bias", "tool runs", "first-run", "sum slices")
	for _, bias := range []float64{-0.10, -0.05, 0, 0.05, 0.10} {
		est := base.WithBias(bias)
		res, err := f.RunCNV(macroflow.EstimatorCF(est), macroflow.CNVOptions{
			SkipStitch: true,
			Stitch:     macroflow.StitchOptions{Seed: c.seed},
		})
		if err != nil {
			log.Fatal(err)
		}
		slices := 0
		for i, b := range res.Blocks {
			slices += b.UsedSlices * res.Instances[i]
		}
		fmt.Printf("%+-8.2f %-10d %-12s %-12d\n",
			bias, res.TotalToolRuns, fmt.Sprintf("%.1f%%", 100*res.FirstRunRate), slices)
	}
	fmt.Println("\n(§VIII: underestimation costs tool runs but buys PBlock density)")
}

// maze cross-checks the analytic congestion model against the precise
// PathFinder-style maze router on a module sample: feasibility agreement
// and the wirelength ratio.
func maze(c *ctx) {
	dev := fabric.XC7Z020()
	rng := rand.New(rand.NewSource(c.seed + 99))
	n := 60
	if c.modules < 800 {
		n = 25
	}
	specs := rtlgen.GenerateMix(rng, n)
	cfg := pblock.DefaultConfig()

	type probe struct {
		ok           bool
		aFeas, mFeas bool
		aWire, mWire float64
	}
	cfs := []float64{1.0, 1.4}
	probes := make([]probe, len(cfs)*len(specs)) // slot per (module, CF): a fixed order
	c.rec.Lanes("maze worker", 0, len(specs), func(i, _ int) {
		m, rep, err := pblock.FrontEnd(specs[i], nil)
		if err != nil || rep.EstSlices < 12 || rep.EstSlices > 600 {
			return
		}
		for k, cf := range cfs {
			pb, err := pblock.Build(dev, rep, cf, cfg)
			if err != nil {
				continue
			}
			pl, err := place.Place(dev, m, rep, pb.Rect, cfg.Place)
			if err != nil {
				continue
			}
			a := route.Route(pl, cfg.Route)
			mz := route.RouteMaze(pl, route.DefaultMazeConfig())
			probes[len(cfs)*i+k] = probe{
				ok:    true,
				aFeas: a.Feasible, mFeas: mz.Feasible,
				aWire: a.TotalWirelength, mWire: float64(mz.TotalWirelength),
			}
		}
	})

	agree, total := 0, 0
	wireRatioSum, wireCnt := 0.0, 0
	for _, p := range probes {
		if !p.ok {
			continue
		}
		total++
		if p.aFeas == p.mFeas {
			agree++
		}
		if p.aWire > 0 && p.mWire > 0 {
			wireRatioSum += p.mWire / p.aWire
			wireCnt++
		}
	}
	if total == 0 {
		log.Fatal("maze: no probes")
	}
	fmt.Printf("probes: %d placements\n", total)
	fmt.Printf("feasibility agreement (analytic vs PathFinder): %.1f%%\n", 100*float64(agree)/float64(total))
	fmt.Printf("routed wirelength / HPWL estimate: %.2fx mean\n", wireRatioSum/float64(wireCnt))
	fmt.Println("\n(the fast analytic probe stands in for the maze router during the")
	fmt.Println(" tens of thousands of feasibility queries of dataset generation)")
}
