package stitch

import (
	"macroflow/internal/fabric"
	"macroflow/internal/rng"
)

// Synthetic generates a deterministic cnvW1A1-shaped stitching problem
// scaled by scale: the same ~74 unique block types and 175·scale
// instances, with a cnv-like block mix (skewed instance counts, mostly
// narrow blocks, a third of the footprints ragged) and a pipeline
// netlist (a weighted chain plus short skip connections). Block
// heights are sized so the expected occupied area is ~half the
// device's CLB capacity regardless of scale, so the annealer always
// has room to move — the regime the paper's stitcher operates in.
//
// The problem is a pure function of (dev, scale, seed): the generator
// draws everything from one seeded rng in a fixed order. It backs the
// scaled stitch cells of cmd/bench (stitch.*.10x, stitch.*.30x), the
// hybrid and sharding quality contracts (TestHybridOnThirdOfAnnealBudget,
// TestSharded10xFullAudit) and the legalization property tests.
func Synthetic(dev *fabric.Device, scale int, seed int64) *Problem {
	if scale < 1 {
		scale = 1
	}
	gen := rng.New(seed)
	nTypes := 74
	nInst := 175 * scale
	p := &Problem{Dev: dev}

	// CLB capacity bounds the block sizing: target ~50% occupancy.
	capTiles := 0
	for x := 0; x < dev.NumCols(); x++ {
		if dev.IsCLBColumn(x) {
			capTiles += dev.Rows
		}
	}

	// Skewed instance→type assignment (u² favors low type indices):
	// a few hot types with many replicas, a long tail of singletons —
	// the cnv shape.
	instTypes := make([]int, nInst)
	for i := range instTypes {
		u := gen.Float64()
		t := int(u * u * float64(nTypes))
		if t >= nTypes {
			t = nTypes - 1
		}
		instTypes[i] = t
	}
	// Maximal runs of consecutive CLB columns — the placeable homes.
	type clbRun struct{ start, n int }
	var runs []clbRun
	for x := 0; x < dev.NumCols(); {
		if !dev.IsCLBColumn(x) {
			x++
			continue
		}
		s := x
		for x < dev.NumCols() && dev.IsCLBColumn(x) {
			x++
		}
		runs = append(runs, clbRun{s, x - s})
	}

	// Size each type for ~45% expected utilization (the height floor of
	// one tile rounds the small-block scales up toward ~50%). Singleton
	// tail types may end up with zero instances when nInst < nTypes·u²
	// coverage; they still get a block so indices stay cnv-shaped.
	meanArea := 0.45 * float64(capTiles) / float64(nInst)
	maxH := dev.Rows / 3
	if maxH < 1 {
		maxH = 1
	}
	for t := 0; t < nTypes; t++ {
		w := 1 + gen.Intn(3)
		if meanArea < 2 {
			w = 1 // sub-2-tile blocks: wider shapes can't round below 1 row
		}
		jitter := 0.5 + float64(gen.Float64()*1.5) // rounded: never fused
		h := int(meanArea*jitter/float64(w) + 0.5)
		if h < 1 {
			h = 1
		}
		if h > maxH {
			h = maxH
		}
		// Pick a CLB run wide enough, then an offset inside it, so the
		// types sample different column signatures (and thus different
		// relocation freedom).
		var wide []clbRun
		for _, r := range runs {
			if r.n >= w {
				wide = append(wide, r)
			}
		}
		if len(wide) == 0 {
			w = 1
			for _, r := range runs {
				if r.n >= 1 {
					wide = append(wide, r)
				}
			}
		}
		r := wide[gen.Intn(len(wide))]
		home := r.start + gen.Intn(r.n-w+1)
		b := Block{Name: synthName(t), HomeX: home, Width: w, Height: h}
		for c := 0; c < w; c++ {
			b.Spans = append(b.Spans, ColSpan{DX: c, Min: 0, Max: h - 1})
		}
		// A third of the footprints are ragged: one column's span is
		// shortened, wasting the rows between the extremes — the
		// paper's dead-spot mechanism.
		if w > 1 && h > 2 && gen.Intn(3) == 0 {
			c := gen.Intn(w)
			cut := 1 + gen.Intn(h/2)
			b.Spans[c].Max = h - 1 - cut
			b.Irregularity = float64(cut) / float64(h)
		}
		p.Blocks = append(p.Blocks, b)
	}

	for _, t := range instTypes {
		p.Instances = append(p.Instances, Instance{Name: synthName(t), Block: t})
	}

	// Pipeline chain plus short skip connections, cnv-style quantized
	// weights (multiples of 1/16).
	for i := 1; i < nInst; i++ {
		p.Nets = append(p.Nets, Net{From: i - 1, To: i, Weight: 1})
	}
	for e := 0; e < nInst/3; e++ {
		to := 1 + gen.Intn(nInst-1)
		from := to - (2 + gen.Intn(7))
		if from < 0 {
			from = 0
		}
		w := float64(4+gen.Intn(13)) / 16 // 0.25 .. 1.0
		p.Nets = append(p.Nets, Net{From: from, To: to, Weight: w})
	}
	return p
}

// synthName labels a synthetic block type like the cnv layers.
func synthName(t int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	return "syn_" + string(letters[t%len(letters)]) + string('0'+byte(t/len(letters)))
}
