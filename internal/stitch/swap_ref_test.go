package stitch

import (
	"math"
	"slices"
	"testing"
)

// refTryMove and refTrySwap are the move kernel before draws went
// through precomputed Bounds and before a swap of two instances of one
// block skipped the bitmap, kept as the reference
// TestSwapSameBlockMatchesGeneral compares the kernel with: every draw
// is Intn, the row rule is the pitch's remainder, and every legal swap
// lifts both footprints, tests both destinations and marks them again.
// refTrySwap reports whether it took a legal same-block swap, the case
// the kernel shortcuts.
func refTryMove(a *annealer, temp float64) (sameBlockSwap bool) {
	a.moves++
	if len(a.p.Instances) > 1 && a.rng.Intn(8) == 0 {
		return refTrySwap(a, temp)
	}
	ii := a.rng.Intn(len(a.p.Instances))
	bidx := a.p.Instances[ii].Block
	b := &a.p.Blocks[bidx]
	xs := a.pr.originsX[bidx]
	if len(xs) == 0 {
		return false
	}
	nx := xs[a.rng.Intn(len(xs))]
	maxY := a.p.Dev.Rows - b.Height
	if maxY < 0 {
		return false
	}
	ny := a.rng.Intn(maxY + 1)
	if ny%a.pr.pitch[bidx] != 0 {
		a.illegal++
		return false
	}
	old := a.origins[ii]
	lifted := false
	if a.overlaps(b, nx, ny) {
		maybeOwn := old.Placed && nx < old.X+b.Width && old.X < nx+b.Width &&
			ny < old.Y+b.Height && old.Y < ny+b.Height
		if maybeOwn {
			a.mark(b, old.X, old.Y, false)
			if lifted = !a.overlaps(b, nx, ny); !lifted {
				a.mark(b, old.X, old.Y, true)
			}
		}
		if !lifted {
			a.illegal++
			return false
		}
	}
	before := a.cachedInstCost(ii)
	a.clearPending()
	a.setOrigin(ii, Origin{X: nx, Y: ny, Placed: true})
	after := a.freshInstCost(ii)
	delta := after - before
	if delta <= 0 || a.rng.Float64() < math.Exp(-costOf(delta)/temp) {
		if old.Placed && !lifted {
			a.mark(b, old.X, old.Y, false)
		}
		a.mark(b, nx, ny, true)
		a.cost += delta
		a.commitPending()
		a.accepts++
	} else {
		a.setOrigin(ii, old)
		if lifted {
			a.mark(b, old.X, old.Y, true)
		}
	}
	return false
}

func refTrySwap(a *annealer, temp float64) (sameBlockSwap bool) {
	i1 := a.rng.Intn(len(a.p.Instances))
	i2 := a.rng.Intn(len(a.p.Instances))
	if i1 == i2 {
		return false
	}
	o1, o2 := a.origins[i1], a.origins[i2]
	if !o1.Placed || !o2.Placed {
		return false
	}
	bi1, bi2 := a.p.Instances[i1].Block, a.p.Instances[i2].Block
	b1, b2 := &a.p.Blocks[bi1], &a.p.Blocks[bi2]
	if !a.p.Dev.SignatureMatches(b1.HomeX, b1.Width, o2.X) ||
		!a.p.Dev.SignatureMatches(b2.HomeX, b2.Width, o1.X) {
		return false
	}
	if !a.rowOK(bi1, o2.Y) || !a.rowOK(bi2, o1.Y) {
		a.illegal++
		return false
	}
	a.mark(b1, o1.X, o1.Y, false)
	a.mark(b2, o2.X, o2.Y, false)
	ok := !a.overlaps(b1, o2.X, o2.Y)
	if ok {
		a.mark(b1, o2.X, o2.Y, true)
		ok = !a.overlaps(b2, o1.X, o1.Y)
		a.mark(b1, o2.X, o2.Y, false)
	}
	if !ok {
		a.mark(b1, o1.X, o1.Y, true)
		a.mark(b2, o2.X, o2.Y, true)
		a.illegal++
		return false
	}
	before := a.cachedPairCost(i1, i2)
	a.clearPending()
	a.setOrigin(i1, Origin{X: o2.X, Y: o2.Y, Placed: true})
	a.setOrigin(i2, Origin{X: o1.X, Y: o1.Y, Placed: true})
	after := a.freshPairCost(i1, i2)
	delta := after - before
	if delta <= 0 || a.rng.Float64() < math.Exp(-costOf(delta)/temp) {
		a.mark(b1, o2.X, o2.Y, true)
		a.mark(b2, o1.X, o1.Y, true)
		a.cost += delta
		a.commitPending()
		a.accepts++
	} else {
		a.setOrigin(i1, o1)
		a.setOrigin(i2, o2)
		a.mark(b1, o1.X, o1.Y, true)
		a.mark(b2, o2.X, o2.Y, true)
	}
	return bi1 == bi2
}

// TestSwapSameBlockMatchesGeneral runs the kernel and the reference
// side by side from one seeded state, on the full cnvW1A1 device and on
// the 12-worker pipeline where most swaps pair instances of one block,
// and after every move requires the same origins, occupancy words,
// running cost, accept and illegal counts and generator
// state.
func TestSwapSameBlockMatchesGeneral(t *testing.T) {
	cases := []struct {
		name string
		p    *Problem
		// minSame is the fewest legal same-block swaps the sequences
		// must take, so the shortcut is exercised, not just compiled.
		minSame int
	}{
		{"cnv", cnvMinCFProblem(t), 50},
		{"pipeline12", pipeline12Problem(t), 1000},
	}
	const moves = 20000
	for _, tc := range cases {
		pr := newPrep(tc.p)
		same := 0
		for seed := int64(1); seed <= 3; seed++ {
			got := newAnnealer(tc.p, pr, DefaultConfig(), seed)
			got.greedyInit()
			got.initCostState()
			want := newAnnealer(tc.p, pr, DefaultConfig(), seed)
			want.cloneStateFrom(got)
			temp := costOf(got.cost) * initTempFrac
			cooling := math.Pow(0.001, 1.0/moves)
			for it := 0; it < moves; it++ {
				got.tryMove(temp)
				if refTryMove(want, temp) {
					same++
				}
				temp *= cooling
				switch {
				case !slices.Equal(got.origins, want.origins):
					t.Fatalf("%s seed %d move %d: origins differ from the reference", tc.name, seed, it)
				case !slices.Equal(got.occ.bits, want.occ.bits):
					t.Fatalf("%s seed %d move %d: occupancy differs from the reference", tc.name, seed, it)
				case got.cost != want.cost:
					t.Fatalf("%s seed %d move %d: cost %v, reference %v", tc.name, seed, it, got.cost, want.cost)
				case got.moves != want.moves || got.accepts != want.accepts || got.illegal != want.illegal:
					t.Fatalf("%s seed %d move %d: moves/accepts/illegal %d/%d/%d, reference %d/%d/%d", tc.name, seed, it,
						got.moves, got.accepts, got.illegal, want.moves, want.accepts, want.illegal)
				case *got.rng != *want.rng:
					t.Fatalf("%s seed %d move %d: generator state differs from the reference", tc.name, seed, it)
				}
			}
			got.checkIncremental(moves)
		}
		if same < tc.minSame {
			t.Errorf("%s: %d legal same-block swaps, want at least %d", tc.name, same, tc.minSame)
		}
		t.Logf("%s: %d legal same-block swaps", tc.name, same)
	}
}
