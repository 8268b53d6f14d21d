package stitch

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"macroflow/internal/fabric"
	"macroflow/internal/obs"
)

// refDescent is the tiled descent the single-loop kernel replaced, kept
// as the reference TestDescentMatchesReference compares it with: per
// instance, every incident net's force summed in netsOf order and the
// overflow field's central differences read through the clamped ovfAt;
// each iteration two passes over the fixed tiles, fanned out on
// obs.Each. It shares the analytic state (positions, gradients, the
// splat table, the capacity) and keeps its own density grids.
type refDescent struct {
	*analytic
	tiled             [analyticTiles][]float64
	density, overflow []float64
}

func newRefDescent(g *analytic) *refDescent {
	nb := g.nbx * g.nby
	r := &refDescent{analytic: g,
		density: make([]float64, nb), overflow: make([]float64, nb)}
	for t := range r.tiled {
		r.tiled[t] = make([]float64, nb)
	}
	return r
}

// forTiles runs fn over the fixed instance tiling, the tiles spread over
// min(GOMAXPROCS, analyticTiles) workers; an empty tile is skipped.
func (g *refDescent) forTiles(fn func(tile, lo, hi int)) {
	n := len(g.px)
	obs.Each(0, analyticTiles, func(t, _ int) {
		if lo, hi := t*n/analyticTiles, (t+1)*n/analyticTiles; lo < hi {
			fn(t, lo, hi)
		}
	})
}

// splatTile rebuilds tile t's private density grid from the current
// positions of its instances lo..hi-1.
func (g *refDescent) splatTile(t, lo, hi int) {
	bins := g.tiled[t]
	for i := range bins {
		bins[i] = 0
	}
	for i := lo; i < hi; i++ {
		if g.area[i] == 0 {
			continue
		}
		cx := int(g.px[i] / g.binW)
		cy := int(g.py[i] / g.binH)
		if cx >= 1 && cx < g.nbx-1 && cy >= 1 && cy < g.nby-1 {
			w := g.splat[9*g.p.Instances[i].Block:][:9]
			for r := 0; r < 3; r++ {
				row := bins[(cy+r-1)*g.nbx+cx-1:][:3]
				row[0] += w[3*r]
				row[1] += w[3*r+1]
				row[2] += w[3*r+2]
			}
			continue
		}
		sum := 0.0
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				bx, by := cx+dx, cy+dy
				if bx < 0 || bx >= g.nbx || by < 0 || by >= g.nby {
					continue
				}
				sum += splatW[dx+1] * splatW[dy+1]
			}
		}
		if sum == 0 {
			continue
		}
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				bx, by := cx+dx, cy+dy
				if bx < 0 || bx >= g.nbx || by < 0 || by >= g.nby {
					continue
				}
				bins[by*g.nbx+bx] += g.area[i] * splatW[dx+1] * splatW[dy+1] / sum
			}
		}
	}
}

// reduceDensity folds the per-tile grids into the density field in
// fixed tile order and refreshes the clamped overflow.
func (g *refDescent) reduceDensity() {
	for i := range g.density {
		g.density[i] = 0
	}
	for t := 0; t < analyticTiles; t++ {
		bins := g.tiled[t]
		for i := range g.density {
			g.density[i] += bins[i]
		}
	}
	g.totalOverflow = 0
	for i := range g.density {
		ov := g.density[i] - g.capacity[i]
		if ov < 0 {
			ov = 0
		}
		g.overflow[i] = ov
		g.totalOverflow += ov
	}
}

// ovfAt reads the overflow field with clamped indices.
func (g *refDescent) ovfAt(bx, by int) float64 {
	if bx < 0 {
		bx = 0
	}
	if bx >= g.nbx {
		bx = g.nbx - 1
	}
	if by < 0 {
		by = 0
	}
	if by >= g.nby {
		by = g.nby - 1
	}
	return g.overflow[by*g.nbx+bx]
}

// descend is the tiled descent: a gradient tile pass, then the position
// update fused with the next iteration's splat.
func (g *refDescent) descend(rec *obs.Recorder, parent *obs.Span) {
	iters := gdIters(g.cfg)
	g.iters = iters
	W, H := float64(g.p.Dev.NumCols()), float64(g.p.Dev.Rows)
	lr := math.Max(W, H) / 40
	lrCool := math.Pow(0.1/math.Max(lr, 0.2), 1/float64(iters))
	const lambdaMax = 4.0

	sp := obs.StartChild(rec, parent, "stitch.analytic",
		obs.Int("iterations", iters), obs.Int("instances", len(g.px)))
	sampleEvery := iters / 8
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	g.forTiles(g.splatTile)
	g.reduceDensity()
	for it := 0; it < iters; it++ {
		ramp := float64(it+1) / float64(iters)
		lambda := lambdaMax * ramp * ramp
		var tileNorm [analyticTiles]float64
		g.forTiles(func(t, lo, hi int) {
			norm := 0.0
			for i := lo; i < hi; i++ {
				gx, gy := 0.0, 0.0
				for _, ni := range g.pr.netsOf[i] {
					if ni >= len(g.p.Nets) {
						an := &g.p.Anchors[ni-len(g.p.Nets)]
						dx, dy := g.px[i]-an.X, g.py[i]-an.Y
						gx += an.Weight * dx / math.Sqrt(dx*dx+smoothAbsAlpha)
						gy += an.Weight * dy / math.Sqrt(dy*dy+smoothAbsAlpha)
						continue
					}
					n := &g.p.Nets[ni]
					o := n.To
					if o == i {
						o = n.From
					}
					if o == i {
						continue
					}
					dx, dy := g.px[i]-g.px[o], g.py[i]-g.py[o]
					gx += n.Weight * dx / math.Sqrt(dx*dx+smoothAbsAlpha)
					gy += n.Weight * dy / math.Sqrt(dy*dy+smoothAbsAlpha)
				}
				if g.area[i] > 0 {
					bx := int(g.px[i] / g.binW)
					by := int(g.py[i] / g.binH)
					dox := (g.ovfAt(bx+1, by) - g.ovfAt(bx-1, by)) / (2 * g.binW)
					doy := (g.ovfAt(bx, by+1) - g.ovfAt(bx, by-1)) / (2 * g.binH)
					gx += lambda * g.area[i] * dox / g.binH / g.binW
					gy += lambda * g.area[i] * doy / g.binH / g.binW
				}
				g.gx[i], g.gy[i] = gx, gy
				norm += math.Abs(gx) + math.Abs(gy)
			}
			tileNorm[t] = norm
		})
		g.gradNorm = 0
		for t := 0; t < analyticTiles; t++ {
			g.gradNorm += tileNorm[t]
		}
		if it%sampleEvery == 0 || it == iters-1 {
			isp := sp.Child("stitch.analytic.iter", obs.Int("iter", it),
				obs.Float("grad_norm", g.gradNorm),
				obs.Float("overflow", g.totalOverflow))
			isp.End()
			rec.SetGauge("stitch.analytic.grad_norm", g.gradNorm)
			rec.SetGauge("stitch.analytic.overflow", g.totalOverflow)
		}
		maxG := 0.0
		for i := range g.gx {
			if a := math.Abs(g.gx[i]); a > maxG {
				maxG = a
			}
			if a := math.Abs(g.gy[i]); a > maxG {
				maxG = a
			}
		}
		if maxG > 0 {
			scale := lr / maxG
			resplat := it < iters-1
			g.forTiles(func(t, lo, hi int) {
				for i := lo; i < hi; i++ {
					x := g.px[i] - scale*g.gx[i]
					y := g.py[i] - scale*g.gy[i]
					if min := g.bw[i] / 2; x < min {
						x = min
					}
					if max := W - g.bw[i]/2; x > max {
						x = max
					}
					if min := g.bh[i] / 2; y < min {
						y = min
					}
					if max := H - g.bh[i]/2; y > max {
						y = max
					}
					g.px[i], g.py[i] = x, y
				}
				if resplat {
					g.splatTile(t, lo, hi)
				}
			})
			if resplat {
				g.reduceDensity()
			}
		}
		lr *= lrCool
	}
	rec.Add("stitch.analytic.iters", int64(iters))
	rec.SetGauge("stitch.analytic.grad_norm", g.gradNorm)
	rec.SetGauge("stitch.analytic.overflow", g.totalOverflow)
	sp.Set(obs.Float("grad_norm", g.gradNorm), obs.Float("overflow", g.totalOverflow))
	sp.End()
}

// descentCase is one problem the kernel and the reference descend.
type descentCase struct {
	name string
	p    *Problem
	seed int64
}

// descentCases covers the synthetic workload at three scales, the
// anchored sub-problems a sharded run hands the descent, and the edge
// cases of the analytic tests: no nets, a block wider than the device,
// and more block area than the xc7z020 holds. Blocks three times the
// device's width or height, added to the overfull problem, put centres
// off the density grid, left of it or below it, where the splat adds
// nothing and the slope across the grid edge is 0, while anchors pull
// them and a crowd into the corner and make the bins there overflow.
func descentCases(t *testing.T) []descentCase {
	var cases []descentCase
	add := func(name string, p *Problem) {
		for seed := int64(1); seed <= 3; seed++ {
			cases = append(cases, descentCase{fmt.Sprintf("%s/seed%d", name, seed), p, seed})
		}
	}
	dev := fabric.XC7Z045()
	for _, scale := range []int{1, 10, 30} {
		for s := int64(1); s <= 5; s++ {
			add(fmt.Sprintf("synthetic%dx/%d", scale, s), Synthetic(dev, scale, s))
		}
	}
	set, err := fabric.Shards(dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := Synthetic(dev, 10, 1)
	assign := make([]int, len(p.Instances))
	for i := range assign {
		assign[i] = i % 2
	}
	subs, _, _ := buildShardProblems(p, ShardsOf(set), assign)
	for s, sub := range subs {
		if len(sub.Anchors) == 0 {
			t.Fatalf("shard %d has no anchors", s)
		}
		add(fmt.Sprintf("sharded10x/shard%d", s), sub)
	}
	zero := smallProblem(t, 12)
	zero.Nets = nil
	add("zero-net", zero)
	withBlock := func(p *Problem, w, h int) *Problem {
		b := Block{Name: "big", HomeX: 1, Width: w, Height: h}
		for i := 0; i < w; i++ {
			b.Spans = append(b.Spans, ColSpan{DX: i, Min: 0, Max: h - 1})
		}
		p.Blocks = append(p.Blocks, b)
		p.Instances = append(p.Instances, Instance{Name: "big", Block: len(p.Blocks) - 1})
		return p
	}
	wide := smallProblem(t, 8)
	add("wider-than-device", withBlock(wide, wide.Dev.NumCols()+1, 2))
	add("overfull-xc7z020", smallProblem(t, 300))
	off := smallProblem(t, 300)
	withBlock(off, 3*off.Dev.NumCols(), 2)
	withBlock(off, 2, 3*off.Dev.Rows)
	off.Nets = append(off.Nets, Net{From: 0, To: 300, Weight: 1}, Net{From: 300, To: 301, Weight: 2})
	for _, i := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 300, 301} {
		off.Anchors = append(off.Anchors, Anchor{Inst: i, Weight: 50})
	}
	add("off-grid", off)
	return cases
}

// TestDescentMatchesReference: the single-loop kernel performs the
// tiled descent's floating-point operations on the same operands in the
// same order, so positions, gradient norm, overflow and the sampled
// telemetry must agree bit for bit.
func TestDescentMatchesReference(t *testing.T) {
	for _, tc := range descentCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel() // the seeds of a case share its Problem, read-only
			pr := newPrep(tc.p)
			cfg := Config{Seed: tc.seed}
			got, want := newAnalytic(tc.p, pr, cfg), newAnalytic(tc.p, pr, cfg)
			gotRec, wantRec := obs.New(), obs.New()
			got.descend(gotRec, nil)
			newRefDescent(want).descend(wantRec, nil)
			if !reflect.DeepEqual(float64Bits(got.px), float64Bits(want.px)) ||
				!reflect.DeepEqual(float64Bits(got.py), float64Bits(want.py)) {
				t.Error("positions differ from the reference")
			}
			if math.Float64bits(got.gradNorm) != math.Float64bits(want.gradNorm) {
				t.Errorf("gradNorm %v, reference %v", got.gradNorm, want.gradNorm)
			}
			if math.Float64bits(got.totalOverflow) != math.Float64bits(want.totalOverflow) {
				t.Errorf("totalOverflow %v, reference %v", got.totalOverflow, want.totalOverflow)
			}
			if !reflect.DeepEqual(descentTelemetry(gotRec), descentTelemetry(wantRec)) {
				t.Error("recorded spans or metrics differ from the reference")
			}
		})
	}
}

func float64Bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, f := range v {
		out[i] = math.Float64bits(f)
	}
	return out
}

// descentTelemetry lists what a descent recorded, timings left out:
// span names and attributes in order, then the metric registry as
// Prometheus text (shortest round-trip floats, so bit for bit).
func descentTelemetry(rec *obs.Recorder) []any {
	var out []any
	for _, s := range rec.Spans() {
		out = append(out, s.Name, s.Attrs)
	}
	var metrics strings.Builder
	rec.WritePrometheus(&metrics)
	return append(out, metrics.String())
}

// TestDescentAllocsFlat: a descent allocates its state up front and
// nothing per iteration (no fan-out, no scratch), so its allocation
// count does not grow with the iteration budget.
func TestDescentAllocsFlat(t *testing.T) {
	p := Synthetic(fabric.XC7Z045(), 1, 1)
	pr := newPrep(p)
	allocs := func(iters int) float64 {
		cfg := Config{Seed: 1, GDIterations: iters}
		return testing.AllocsPerRun(5, func() { newAnalytic(p, pr, cfg).descend(nil, nil) })
	}
	if a8, a64 := allocs(8), allocs(64); a8 != a64 {
		t.Errorf("descent allocates %v times at 8 iterations, %v at 64", a8, a64)
	}
}
