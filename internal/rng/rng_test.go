package rng

import (
	"math/rand"
	"testing"
)

// The bounds every differential draws at: the power-of-two mask (1, 2,
// 8), small odd bounds, one that rejects about half of all draws
// (2^30+1) and the largest Int31n takes.
var edgeBounds = []int{1, 2, 3, 8, 17, 1<<30 + 1, 1<<31 - 1}

// draw is one method of the generator, applied to a Rand and to the
// math/rand reference in the same way.
type draw struct {
	name string
	got  func(*Rand) float64
	want func(*rand.Rand) float64
}

func draws() []draw {
	ds := []draw{
		{"Uint64", func(r *Rand) float64 { return float64(r.Uint64() >> 11) },
			func(r *rand.Rand) float64 { return float64(r.Uint64() >> 11) }},
		{"Uint64/low", func(r *Rand) float64 { return float64(r.Uint64() & (1<<53 - 1)) },
			func(r *rand.Rand) float64 { return float64(r.Uint64() & (1<<53 - 1)) }},
		{"Int63", func(r *Rand) float64 { return float64(r.Int63() >> 10) },
			func(r *rand.Rand) float64 { return float64(r.Int63() >> 10) }},
		{"Int31", func(r *Rand) float64 { return float64(r.Int31()) },
			func(r *rand.Rand) float64 { return float64(r.Int31()) }},
		{"Float64", func(r *Rand) float64 { return r.Float64() },
			func(r *rand.Rand) float64 { return r.Float64() }},
		{"Intn(2^40)", func(r *Rand) float64 { return float64(r.Intn(1 << 40)) },
			func(r *rand.Rand) float64 { return float64(r.Intn(1 << 40)) }},
		{"Intn(3·2^40+1)", func(r *Rand) float64 { return float64(r.Intn(3<<40 + 1)) },
			func(r *rand.Rand) float64 { return float64(r.Intn(3<<40 + 1)) }},
	}
	for _, n := range edgeBounds {
		n, b := n, NewBound(n)
		ds = append(ds,
			draw{"Intn", func(r *Rand) float64 { return float64(r.Intn(n)) },
				func(r *rand.Rand) float64 { return float64(r.Intn(n)) }},
			draw{"Bounded", func(r *Rand) float64 { return float64(r.Bounded(b)) },
				func(r *rand.Rand) float64 { return float64(r.Intn(n)) }})
	}
	return ds
}

// TestRandMatchesMathRand: a Rand draws what a rand.Rand seeded the
// standard way draws, method by method and with the methods
// interleaved — through the recorded outputs, across the hand-over to
// the recurrence and for three laps beyond — and again after Start
// rewinds it onto the recorded stream.
func TestRandMatchesMathRand(t *testing.T) {
	const n = 3*length + 101 // past the hand-over and three laps
	ds := draws()
	for seed := int64(-3); seed <= 17; seed++ {
		seed := seed * 7919
		for _, d := range ds {
			got, want := New(seed), rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				if g, w := d.got(got), d.want(want); g != w {
					t.Fatalf("seed %d, %s, draw %d: got %v, want %v", seed, d.name, i, g, w)
				}
			}
		}
		stream := Record(seed)
		var got Rand
		for rewind := 0; rewind < 2; rewind++ {
			got.Start(stream)
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < 4*n; i++ {
				d := ds[(i*7+rewind)%len(ds)]
				if g, w := d.got(&got), d.want(want); g != w {
					t.Fatalf("seed %d, rewind %d, mixed draw %d (%s): got %v, want %v", seed, rewind, i, d.name, g, w)
				}
			}
		}
	}
}

// remEdges are the operands a remainder by n is most likely to get
// wrong: the ends of the 31-bit range, the rejection threshold, and the
// multiples of n next to them.
func remEdges(n int) []int32 {
	b := NewBound(n)
	vs := []int32{0, 1, 2, int32(n - 1), 1<<31 - 1, 1<<31 - 2, b.max, b.max - 1}
	if n < 1<<31-1 {
		vs = append(vs, int32(n), int32(n+1))
	}
	top := int32((1<<31 - 1) / n * n) // the largest multiple of n
	for _, m := range []int32{top, top - int32(n)} {
		for _, d := range []int32{-1, 0, 1} {
			if v := m + d; v >= 0 && int64(m)+int64(d) <= 1<<31-1 {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// checkBound compares Bound n against Int31n: the remainder on the
// edge operands and on spread ones, and the draws of two generators
// seeded alike.
func checkBound(t *testing.T, n int, seed int64, draws int) {
	t.Helper()
	b := NewBound(n)
	if b.n != uint64(n) {
		t.Fatalf("NewBound(%d) holds n %d", n, b.n)
	}
	if b.m != 0 {
		if want := int32((1 << 31) - 1 - (1<<31)%uint32(n)); b.max != want {
			t.Fatalf("n %d: threshold %d, want %d", n, b.max, want)
		}
		for _, v := range remEdges(n) {
			if got, want := b.rem(v), int(v%int32(n)); got != want {
				t.Fatalf("n %d: rem(%d) = %d, want %d", n, v, got, want)
			}
		}
		for v := int64(n) * 7; v <= 1<<31-1; v += 1<<31/97 + int64(n) {
			if got, want := b.rem(int32(v)), int(int32(v)%int32(n)); got != want {
				t.Fatalf("n %d: rem(%d) = %d, want %d", n, v, got, want)
			}
		}
	}
	got, want := New(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < draws; i++ {
		if g, w := got.Bounded(b), int(want.Int31n(int32(n))); g != w {
			t.Fatalf("n %d, seed %d, draw %d: Bounded %d, Int31n %d", n, seed, i, g, w)
		}
	}
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Fatalf("n %d, seed %d: next output %d, want %d: the draws consumed the stream differently", n, seed, g, w)
	}
}

// TestBoundMatchesInt31n: Bound(n) returns what Int31n(n) returns and
// consumes the stream as it does, for every n up to 4,096 and at the
// edges of the range.
func TestBoundMatchesInt31n(t *testing.T) {
	for n := 1; n <= 4096; n++ {
		checkBound(t, n, int64(n), 64)
	}
	for _, n := range append(edgeBounds, 1<<16+1, 1<<30-1, 1<<30, 3<<29+1, 1<<31-2) {
		checkBound(t, n, int64(n)*31, 2*length)
	}
}

// FuzzBoundMatchesInt31n runs the same comparison on any n and seed.
func FuzzBoundMatchesInt31n(f *testing.F) {
	for _, n := range edgeBounds {
		f.Add(int64(n), int32(n))
	}
	f.Add(int64(-1), int32(1<<31-1))
	f.Add(int64(-62), int32(0))
	f.Add(int64(5), int32(-1<<31))
	f.Fuzz(func(t *testing.T, seed int64, n int32) {
		if n < 0 {
			n = -(n + 1) // every int32 maps onto [0, 2^31-1]
		}
		if n == 0 {
			n = 1
		}
		checkBound(t, int(n), seed, 16)
	})
}

func TestNewBoundRejectsOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, 1 << 31} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBound(%d) did not panic", n)
				}
			}()
			NewBound(n)
		}()
	}
}
