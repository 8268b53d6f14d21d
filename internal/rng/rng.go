// Package rng is the one random generator of the seeded hot loops: a
// concrete type that draws exactly what math/rand's rand.New(
// rand.NewSource(seed)) draws, bit for bit and call for call, without the
// Source interface between every draw and the generator.
//
// math/rand's seeded source is the additive lagged Fibonacci generator
// x[n] = x[n-607] + x[n-273] (mod 2^64). Seeding it runs a separate
// scrambler 1821 times to fill the 607-word state; but once the
// generator has produced 607 outputs its state is those outputs, and the
// recurrence needs nothing else. So a Stream records a seed's first 607
// outputs once, and a Rand replays them and then continues the
// recurrence itself. A caller that draws from one seed many times (a
// placement plan, one probe after another) records the Stream once and
// restarts from a copy of it.
//
// The methods that turn outputs into numbers are line-for-line copies
// of math/rand's, whose seeded stream is frozen: Intn through Int31n's
// rejection loop and %, Float64 with its retry on 1.0. Bound is the one
// addition, an Int31n(n) for a fixed n that returns the same values with
// no division per draw.
package rng

import (
	"math/bits"
	"math/rand"
)

const (
	length = 607 // the generator's lag: its state is its last 607 outputs
	tap    = 273 // the short lag
)

// Stream is the first 607 outputs of rand.NewSource(seed).
type Stream [length]uint64

// Record returns seed's Stream.
func Record(seed int64) *Stream {
	s := new(Stream)
	s.record(seed)
	return s
}

func (s *Stream) record(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range s {
		s[i] = src.Uint64()
	}
}

// Rand draws the stream of the seed its Stream was recorded from. The
// zero value is not usable: make one with New or Start it.
type Rand struct {
	// ring[i] is output n for the latest n ≡ i (mod 607) produced; next
	// is the slot of the next output, 607 when the lap is used up.
	ring Stream
	next int
}

// New returns a Rand drawing what rand.New(rand.NewSource(seed)) draws.
func New(seed int64) *Rand {
	r := new(Rand)
	r.ring.record(seed)
	return r
}

// Start rewinds r to the beginning of a recorded stream.
func (r *Rand) Start(s *Stream) { r.ring, r.next = *s, 0 }

// Uint64 is the next output of the generator.
func (r *Rand) Uint64() uint64 {
	if r.next == length {
		r.lap()
	}
	x := r.ring[r.next]
	r.next++
	return x
}

// lap overwrites the ring with the next 607 outputs. Slot i holds
// x[n-607] and gains x[n-273]: from the previous lap (slot i+334, not
// yet overwritten) for i < 273, from this lap (slot i-273) after.
func (r *Rand) lap() {
	ring := &r.ring
	for i := 0; i < tap; i++ {
		ring[i] += ring[i+length-tap]
	}
	for i := tap; i < length; i++ {
		ring[i] += ring[i-tap]
	}
	r.next = 0
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// Int31 returns a non-negative pseudo-random 31-bit integer.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// int63n is math/rand's Int63n.
func (r *Rand) int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// int31n is math/rand's Int31n.
func (r *Rand) int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Intn returns, as an int, a non-negative pseudo-random number in the
// half-open interval [0,n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.int31n(int32(n)))
	}
	return int(r.int63n(int64(n)))
}

// Float64 returns, as a float64, a pseudo-random number in the
// half-open interval [0.0,1.0).
func (r *Rand) Float64() float64 {
again:
	f := float64(r.Int63()) / (1 << 63)
	if f == 1 {
		goto again // resample; this branch is taken O(never)
	}
	return f
}

// Bound is Intn(n) for one fixed n in [1, 2^31-1], with everything
// Int31n derives from n computed once:
//   - a power of two masks, as Int31n does;
//   - otherwise the rejection threshold max = 2^31-1 - 2^31 mod n is
//     Int31n's own, so the same draws are rejected and the same v is
//     kept;
//   - and v % n is v·M's low 64 bits times n, high 64 bits, with
//     M = ⌊(2^64-1)/n⌋ + 1: exact for every 32-bit v and n (Lemire,
//     Kaser and Kurz, "Faster remainder by direct computation", 2019).
//
// So r.Bounded(NewBound(n)) and r.Intn(n) return the same value and
// leave r in the same state.
type Bound struct {
	n    uint64
	m    uint64 // the multiplier M; 0 for a power of two
	mask int32  // n-1 for a power of two
	max  int32  // the rejection threshold
}

// NewBound precomputes Intn(n); n must be in [1, 2^31-1].
func NewBound(n int) Bound {
	if n <= 0 || n > 1<<31-1 {
		panic("rng: Bound out of range")
	}
	b := Bound{n: uint64(n), mask: int32(n - 1)}
	if n&(n-1) != 0 {
		b.m = ^uint64(0)/uint64(n) + 1
		b.max = int32((1 << 31) - 1 - (1<<31)%uint32(n))
	}
	return b
}

// Bounded returns Intn(n) for b = NewBound(n). It draws Int31 as Int31
// does, with the generator inlined, so a draw is one call.
func (r *Rand) Bounded(b Bound) int {
	v := int32(r.Uint64() & (1<<63 - 1) >> 32)
	if b.m == 0 {
		return int(v & b.mask)
	}
	for v > b.max {
		v = int32(r.Uint64() & (1<<63 - 1) >> 32)
	}
	return b.rem(v)
}

// rem is v % n for a non-power-of-two n.
func (b Bound) rem(v int32) int {
	hi, _ := bits.Mul64(b.m*uint64(v), b.n)
	return int(hi)
}
