package main

// Layer probes: each times calls into one layer's public functions on
// fixed inputs — the 74 cnvW1A1 block modules unless stated — and
// reports the median of reps repetitions. The calls themselves are the
// adapter's; this file only holds the measurement protocol.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// timed runs f reps times and returns each repetition's duration in
// seconds.
func timed(reps int, f func()) []float64 {
	out := make([]float64, reps)
	for r := range out {
		t0 := time.Now()
		f()
		out[r] = time.Since(t0).Seconds()
	}
	return out
}

func scaled(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}

// setTimed records the median of per-repetition times; each repetition
// made calls calls and unit is the number of units in a second.
func setTimed(out *layerOut, name string, secs []float64, calls int, unit float64) {
	per := scaled(secs, unit/float64(calls))
	out.set(name, median(per), len(per)*calls, per)
}

// probeBlockLayers covers synth, place, route, pblock and the block
// oracles (owned by cnv-cold). It returns the oracle violations seen.
func probeBlockLayers(fix *fixture, reps int, out *layerOut) (violations int, err error) {
	n := fix.n()
	each := func(f func(i int)) func() {
		return func() {
			for i := 0; i < n; i++ {
				f(i)
			}
		}
	}

	// synth: cnv.Design.Module memoizes, so every repetition needs a
	// fresh design, built outside the timed part.
	var synthSecs []float64
	for r := 0; r < reps; r++ {
		synthSecs = append(synthSecs, timed(1, fix.moduleAll())...)
	}
	setTimed(out, "synth.module_us", synthSecs, n, 1e6)
	cells, removed, err := fix.synthFresh()
	if err != nil {
		return 0, err
	}
	out.set("synth.cells_out", float64(cells), n, nil)
	out.set("synth.opt_removed_share", float64(removed)/float64(removed+cells), removed+cells, nil)

	setTimed(out, "place.quick_us", timed(reps, each(fix.quick)), n, 1e6)
	setTimed(out, "place.detail_ok_us", timed(reps, each(fix.placeOK)), n, 1e6)
	rejects := 0
	for i := 0; i < n; i++ {
		if fix.belowOK[i] {
			rejects++
		}
	}
	setTimed(out, "place.detail_reject_us", timed(reps, each(func(i int) {
		if fix.belowOK[i] {
			fix.placeReject(i)
		}
	})), rejects, 1e6)
	setTimed(out, "place.verify_us", timed(reps, each(func(i int) {
		if verr := fix.verify(i); verr != nil {
			err = verr
		}
	})), n, 1e6)
	if err != nil {
		return 0, err
	}
	setTimed(out, "route.probe_us", timed(reps, each(fix.route)), n, 1e6)
	out.set("route.feasible_share", float64(fix.counts.Feasible)/float64(fix.counts.Placed), fix.counts.Placed, nil)
	setTimed(out, "pblock.build_us", timed(reps, each(fix.build)), n, 1e6)
	out.set("pblock.useful_probe_share", float64(fix.counts.Feasible)/float64(fix.counts.Attempted), fix.counts.Attempted, nil)

	// The library's own searches over all modules, serially. The slowest
	// block is what a compile waits for once there are cores to spare.
	for _, s := range []struct {
		name   string
		bisect bool
	}{{"linear", false}, {"bisect", true}} {
		var totals, slowest []float64
		probes := 0
		for r := 0; r < reps; r++ {
			probes = 0
			total, slow := 0.0, 0.0
			for i := 0; i < n; i++ {
				t0 := time.Now()
				runs, serr := fix.minCF(i, s.bisect)
				d := time.Since(t0).Seconds()
				if serr != nil {
					return 0, serr
				}
				probes += runs
				total += d
				if d > slow {
					slow = d
				}
			}
			totals, slowest = append(totals, total*1e3), append(slowest, slow*1e3)
		}
		out.set("pblock.mincf_"+s.name+"_ms", median(totals), reps, totals)
		out.set("pblock.mincf_"+s.name+"_probes", float64(probes), n, nil)
		if !s.bisect {
			out.set("pblock.slowest_block_ms", median(slowest), reps, slowest)
			if probes != fix.counts.Attempted {
				return 0, fmt.Errorf("linear search made %d probes, the spelled-out sweep %d", probes, fix.counts.Attempted)
			}
		}
	}

	setTimed(out, "oracle.check_impl_us", timed(reps, each(func(i int) { violations += fix.checkImpl(i) })), n, 1e6)
	mincf := timed(reps, each(func(i int) { violations += fix.checkMinCF(i) }))
	out.set("oracle.check_mincf_ms", median(scaled(mincf, 1e3)), reps, scaled(mincf, 1e3))
	return violations, nil
}

// probeCache covers the persistent cache's write and read paths and the
// placement rebuild (owned by cnv-warm).
func probeCache(fix *fixture, tmp string, reps int, out *layerOut) error {
	dir := filepath.Join(tmp, "probe-implcache")
	defer os.RemoveAll(dir)
	store, err := openImplStore(dir)
	if err != nil {
		return err
	}
	n := fix.n()
	recs, bytes := make([]cacheRecord, n), 0
	for i := range recs {
		recs[i] = fix.record(i)
		bytes += recs[i].bytes()
	}
	out.set("implcache.record_bytes", float64(bytes)/float64(n), n, nil)
	setTimed(out, "implcache.put_us", timed(reps, func() {
		for i := 0; i < n; i++ {
			if perr := store.put(fix, i, recs[i]); perr != nil {
				err = perr
			}
		}
	}), n, 1e6)
	setTimed(out, "implcache.get_us", timed(reps, func() {
		for i := 0; i < n; i++ {
			if !store.get(fix, i) {
				err = fmt.Errorf("record %d missing after put", i)
			}
		}
	}), n, 1e6)
	setTimed(out, "pblock.rebuild_us", timed(reps, func() {
		for i := 0; i < n; i++ {
			if rerr := fix.rebuild(i, recs[i]); rerr != nil {
				err = rerr
			}
		}
	}), n, 1e6)
	return err
}

// probeCNVStitch is the cnv regime of the stitcher: 175 instances on a
// full device, serial anneal (owned by cnv-warm).
func probeCNVStitch(fix *fixture, seeds []int64, reps int, out *layerOut) {
	prob := fix.stitchProblem()
	var ms, illegal, converge []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		run, _ := runStitch(prob, "anneal", cnvMoves, 0, seeds[r%len(seeds)])
		ms = append(ms, time.Since(t0).Seconds()*1e3)
		illegal = append(illegal, float64(run.IllegalMoves)/float64(run.Moves))
		converge = append(converge, float64(run.ConvergenceIter))
	}
	out.set("stitch.cnv.ms", median(ms), reps, ms)
	out.set("stitch.cnv.illegal_share", median(illegal), reps*cnvMoves, illegal)
	out.set("stitch.cnv.converge_iter", median(converge), reps, converge)
}

// solverCell times one solver configuration reps times. run reports the
// deterministic quality number of the result (a cost or a cut) and
// whether this build knows the backend at all; an unknown backend is
// listed absent and its two metrics are left out — never a failure.
func solverCell(out *layerOut, msName, valueName string, reps int, run func() (value float64, present bool, err error)) (ms []float64, err error) {
	var value float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		v, present, err := run()
		if err != nil {
			return nil, err
		}
		if !present {
			out.absent = append(out.absent, msName, valueName)
			return nil, nil
		}
		ms, value = append(ms, time.Since(t0).Seconds()*1e3), v
	}
	out.set(msName, median(ms), reps, ms)
	out.set(valueName, value, 1, nil)
	return ms, nil
}

// probeStitchMatrix is the backend x scale crossover matrix at an equal
// move budget, plus the partitioner (owned by stitch-scale).
func probeStitchMatrix(prob10 stitchProblem, seed, problemSeed int64, reps int, out *layerOut) (violations int, err error) {
	problems := map[int]stitchProblem{1: synthetic(1, problemSeed), stitchScale: prob10}
	for _, sc := range matrixScales {
		if _, ok := problems[sc]; !ok {
			problems[sc] = synthetic(sc, problemSeed)
		}
	}
	cell := func(be string, sc int) {
		base := fmt.Sprintf("stitch.%s.%dx", be, sc)
		var last stitchRun
		ms, _ := solverCell(out, base+".ms", base+".cost", reps, func() (float64, bool, error) {
			run, present := runStitch(problems[sc], be, stitchMoves, stitchChains, seed)
			last = run
			return run.Cost, present, nil
		})
		if ms != nil && be == opBackend && sc == stitchScale {
			out.set("stitch.hybrid.10x.moves_per_s", float64(last.Moves)/(median(ms)/1e3), last.Moves, nil)
			check := scaled(timed(reps, func() { violations = checkPlacement(problems[sc], last) }), 1e3)
			out.set("oracle.check_placement_ms", median(check), reps, check)
		}
	}
	for _, be := range smallBackends {
		cell(be, 1)
	}
	for _, sc := range matrixScales {
		for _, be := range matrixBackends {
			cell(be, sc)
		}
	}
	if _, err := solverCell(out, "stitch.sharded.10x.ms", "stitch.sharded.10x.cost", reps, func() (float64, bool, error) {
		return runSharded(prob10, stitchMoves, stitchChains, seed)
	}); err != nil {
		return violations, err
	}
	for _, be := range []string{"greedy", "evo"} {
		be := be
		if _, err := solverCell(out, "partition."+be+".ms", "partition."+be+".cut", reps, func() (float64, bool, error) {
			return partitionCut(prob10, be, seed)
		}); err != nil {
			return violations, err
		}
	}
	return violations, nil
}

// probeEstimator covers dataset generation, model fit and prediction,
// and the estimator-seeded search on the cnv blocks (owned by
// daemon-dse). Generation takes seconds and runs once.
func probeEstimator(modules, trees, reps int, out *layerOut) error {
	data, err := generateDataset(modules)
	if err != nil {
		return err
	}
	out.set("dataset.generate_s", data.GenerateS, modules, nil)
	out.set("dataset.modules_per_s", float64(data.Labeled)/data.GenerateS, data.Labeled, nil)
	fit := timed(reps, func() {
		if ferr := data.fit(trees); ferr != nil {
			err = ferr
		}
	})
	if err != nil {
		return err
	}
	out.set("ml.fit_s", median(fit), reps, fit)
	vectors := 0
	predict := timed(reps, func() { vectors = data.predictTest() })
	setTimed(out, "ml.predict_us", predict, vectors, 1e6)
	out.set("ml.rel_error", data.relError(), vectors, nil)

	fix, err := newFixture(false)
	if err != nil {
		return err
	}
	var ms []float64
	probes, estimated, first := 0, 0, 0
	for r := 0; r < reps; r++ {
		probes, estimated, first = 0, 0, 0
		t0 := time.Now()
		for i := 0; i < fix.n(); i++ {
			runs, est, serr := fix.fromEstimate(i, data.predictShape)
			if serr != nil {
				return serr
			}
			probes += runs
			if est {
				estimated++
				if runs == 1 {
					first++
				}
			}
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	out.set("pblock.from_estimate_ms", median(ms), reps, ms)
	out.set("pblock.from_estimate_probes", float64(probes), fix.n(), nil)
	out.set("pblock.first_run_share", float64(first)/float64(estimated), estimated, nil)
	return nil
}

// probeAPI times the daemon's request admission and result encoding
// (owned by daemon-dse): decode over one generated batch, encode over a
// cnvW1A1 result.
func probeAPI(gen *dseGenerator, reps int, out *layerOut) error {
	jobs, err := gen.batch(0)
	if err != nil {
		return err
	}
	const rounds = 50
	setTimed(out, "api.decode_us", timed(reps, func() {
		for k := 0; k < rounds; k++ {
			for _, j := range jobs {
				if derr := apiDecode(j.body); derr != nil {
					err = derr
				}
			}
		}
	}), rounds*len(jobs), 1e6)
	if err != nil {
		return err
	}
	res, err := cnvCompile(gen.stitchSeeds[0], blockCache{}, false, false)
	if err != nil {
		return err
	}
	var raw []byte
	setTimed(out, "api.encode_us", timed(reps, func() {
		for k := 0; k < rounds; k++ {
			if raw, err = apiEncode(res); err != nil {
				return
			}
		}
	}), rounds, 1e6)
	out.set("api.result_bytes", float64(len(raw)), 1, nil)
	return err
}
