package place

import "math/rand"

// math/rand's seeded source is the additive lagged Fibonacci generator
// x[n] = x[n-607] + x[n-273] (mod 2^64). Seeding it runs a separate
// scrambler 1821 times to fill the 607-word state, which costs more than
// many a rejected probe draws; but once the generator has produced 607
// outputs its state is those outputs, and the recurrence needs nothing
// else. So a plan records its seed's first 607 outputs once, and every
// probe replays them from a copy and continues the recurrence itself —
// the same stream as a freshly seeded rand.Rand, for the price of a 5 KB
// copy.
const (
	alfgLen = 607
	alfgLag = 273
)

// seedStream is the first alfgLen outputs of rand.NewSource(seed).
type seedStream [alfgLen]uint64

func recordStream(seed int64) *seedStream {
	src := rand.NewSource(seed).(rand.Source64)
	s := new(seedStream)
	for i := range s {
		s[i] = src.Uint64()
	}
	return s
}

// streamSource is a rand.Source64 producing the stream of the seed its
// seedStream was recorded from.
type streamSource struct {
	// ring[i] is output n for the latest n ≡ i (mod alfgLen) produced,
	// or still to be replayed during the first lap.
	ring     seedStream
	next     int  // slot of the next output
	replayed bool // the recorded outputs are used up; generate from here on
}

// start rewinds the source to the beginning of the recorded stream.
func (s *streamSource) start(from *seedStream) {
	s.ring, s.next, s.replayed = *from, 0, false
}

func (s *streamSource) Uint64() uint64 {
	i := s.next
	if s.replayed {
		// ring[i] is x[n-607]; x[n-273] sits 607-273 slots ahead.
		j := i + alfgLen - alfgLag
		if j >= alfgLen {
			j -= alfgLen
		}
		s.ring[i] += s.ring[j]
	}
	if s.next++; s.next == alfgLen {
		s.next, s.replayed = 0, true
	}
	return s.ring[i]
}

func (s *streamSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Seed restarts the source on another seed's stream, recorded now.
func (s *streamSource) Seed(seed int64) { s.start(recordStream(seed)) }
