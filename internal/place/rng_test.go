package place

import (
	"math/rand"
	"testing"
)

// TestStreamSourceMatchesMathRand: a rand.Rand over a streamSource draws
// what a rand.Rand seeded the standard way draws — through the replayed
// prefix, across the hand-over to the recurrence and for laps beyond —
// whichever methods consume the stream, and again after a rewind.
func TestStreamSourceMatchesMathRand(t *testing.T) {
	for seed := int64(-3); seed < 17; seed++ {
		stream := recordStream(seed * 7919)
		var src streamSource
		got := rand.New(&src)
		for lap := 0; lap < 2; lap++ {
			src.start(stream)
			want := rand.New(rand.NewSource(seed * 7919))
			for i := 0; i < 10000; i++ {
				var g, w float64
				switch i % 4 {
				case 0:
					g, w = got.Float64(), want.Float64()
				case 1:
					g, w = float64(got.Intn(17)), float64(want.Intn(17))
				case 2:
					g, w = float64(got.Intn(1<<40)), float64(want.Intn(1<<40))
				default:
					g, w = float64(got.Uint64()>>11), float64(want.Uint64()>>11)
				}
				if g != w {
					t.Fatalf("seed %d, lap %d, draw %d: got %v, want %v", seed*7919, lap, i, g, w)
				}
			}
		}
		got.Seed(seed + 1) // the slow path: record and start in one step
		if g, w := got.Int63(), rand.New(rand.NewSource(seed+1)).Int63(); g != w {
			t.Fatalf("after Seed(%d): got %d, want %d", seed+1, g, w)
		}
	}
}
