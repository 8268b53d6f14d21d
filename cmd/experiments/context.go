package main

import (
	"log"
	"sync"

	"macroflow"
	"macroflow/internal/cliflags"
	"macroflow/internal/cnv"
	"macroflow/internal/dataset"
	"macroflow/internal/fabric"
	"macroflow/internal/implcache"
	"macroflow/internal/ml"
	"macroflow/internal/obs"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
)

// ctx caches the expensive shared artifacts (dataset, cnv labels) across
// experiments in one invocation.
type ctx struct {
	seed        int64
	modules     int
	trees       int
	epochs      int
	stitchIters int
	stitch      *cliflags.Stitch
	partition   *cliflags.Partition
	check       macroflow.CheckLevel

	// rec collects spans and metrics when -trace/-metrics is set (nil
	// otherwise — recording fully disabled). cur is the span of the
	// experiment currently running, set by main's dispatch loop.
	rec *macroflow.Recorder
	cur *macroflow.Span

	// cache is the persistent implementation cache named by -cache: nil
	// when the flag is unset (the default, which keeps every output
	// bit-identical to the paper-fidelity flow).
	cache *implcache.Cache

	onceData sync.Once
	samples  []dataset.Sample
	balanced []dataset.Sample
	train    []dataset.Sample
	test     []dataset.Sample

	onceCNV sync.Once
	cnvMin  []cnvLabel // per unique block type, xc7z020
}

// cnvLabel is one labeled cnv block: features plus measured minimal CF.
type cnvLabel struct {
	Name      string
	Rep       place.ShapeReport
	CF        float64
	Used      int
	ToolRuns  int
	Impl      *pblock.Implementation
	Instances int
}

const cnvSearchStart = 0.5 // §IV determines minimal CFs below 0.7 too

// stitchOptions builds the stitcher options every cnv-flow experiment
// shares: the -stitch-* flag group (backend, chains) applied on top of
// the run's seed and iteration budget.
func (c *ctx) stitchOptions(seed int64) macroflow.StitchOptions {
	o := macroflow.StitchOptions{Seed: seed, Anneal: macroflow.AnnealOptions{Iterations: c.stitchIters}, Obs: c.rec}
	c.stitch.Apply(&o)
	return o
}

// partitionOptions builds the partition options from the -partition
// flag group (the zero value when -partition is 0, keeping the
// single-device path and its byte-identical outputs).
func (c *ctx) partitionOptions() macroflow.PartitionOptions {
	var o macroflow.PartitionOptions
	c.partition.Apply(&o)
	return o
}

func (c *ctx) dataset() ([]dataset.Sample, []dataset.Sample, []dataset.Sample, []dataset.Sample) {
	c.onceData.Do(func() {
		cfg := dataset.DefaultConfig()
		cfg.Modules = c.modules
		cfg.Seed = c.seed
		cfg.Cache = c.cache
		cfg.Search.Obs = c.rec
		cfg.Search.Span = c.cur
		log.Printf("generating %d-module dataset ...", cfg.Modules)
		s, err := dataset.Generate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		c.samples = s
		c.balanced = dataset.Balance(s, 75, c.seed)
		c.train, c.test = dataset.Split(c.balanced, 0.8, c.seed)
		log.Printf("dataset: %d labeled, %d balanced, %d train / %d test",
			len(s), len(c.balanced), len(c.train), len(c.test))
	})
	return c.samples, c.balanced, c.train, c.test
}

// cnvLabels measures the minimal CF of every unique cnvW1A1 block on the
// xc7z020 (the paper's Fig. 4 ground truth), in parallel.
func (c *ctx) cnvLabels() []cnvLabel {
	c.onceCNV.Do(func() {
		dev := fabric.XC7Z020()
		d := cnv.CNVW1A1()
		cfg := pblock.DefaultConfig()
		search := pblock.SearchConfig{Start: cnvSearchStart, Step: 0.02, Max: 3.0, Obs: c.rec}
		labels := make([]cnvLabel, len(d.Types))
		root := obs.StartChild(c.rec, c.cur, "cnv.labels", obs.Int("types", len(d.Types)))
		c.rec.Lanes("implement worker", 0, len(d.Types), func(ti, lane int) {
			sp := root.Child("implement.block",
				obs.String("block", d.Types[ti].Name)).WithLane(lane)
			defer sp.End()
			m, rep, err := pblock.FrontEnd(d.Types[ti].Spec, sp)
			if err != nil {
				log.Fatal(err)
			}
			bsearch := search
			bsearch.Span = sp
			key := ""
			if c.cache != nil {
				key = pblock.SweepKey(dev, m, bsearch, cfg)
			}
			res, outcome, err := pblock.ReadThrough(c.cache, key, dev, m, rep, bsearch, cfg, func() (pblock.SearchResult, error) {
				return pblock.MinCF(dev, m, rep, bsearch, cfg)
			})
			if err != nil {
				log.Fatalf("%s: %v", d.Types[ti].Name, err)
			}
			if outcome.Served() {
				res.ToolRuns = 0 // the runs of this process, not of the one that searched
			}
			sp.Set(obs.Float("cf", res.CF), obs.Int("tool_runs", res.ToolRuns))
			labels[ti] = cnvLabel{
				Name:      d.Types[ti].Name,
				Rep:       rep,
				CF:        res.CF,
				Used:      res.Impl.Placement.UsedSlices,
				ToolRuns:  res.ToolRuns,
				Impl:      res.Impl,
				Instances: d.InstanceCount(ti),
			}
		})
		root.End()
		c.cnvMin = labels
	})
	return c.cnvMin
}

// cnvFeatureSamples converts the cnv labels into estimator samples,
// excluding the one-or-two-tile blocks per §VIII. Minimal CFs are
// clamped to the training sweep's start (0.9): feasibility is monotone,
// so the 0.9-start label of a geometry-bound block is exactly 0.9, and
// that is the domain the estimators were trained on.
func (c *ctx) cnvFeatureSamples() ([]ml.Features, []float64, []string) {
	var feats []ml.Features
	var cfs []float64
	var names []string
	for _, l := range c.cnvLabels() {
		if pblock.Tiny(l.Rep.EstSlices) {
			continue
		}
		cf := l.CF
		if cf < 0.9 {
			cf = 0.9
		}
		feats = append(feats, ml.Extract(l.Rep))
		cfs = append(cfs, cf)
		names = append(names, l.Name)
	}
	return feats, cfs, names
}
