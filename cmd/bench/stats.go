package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile: the smallest sample with
// at least p of the samples at or below it (rank ceil(p*n), 1-based).
// With n < 10 the 90th percentile is the maximum (n <= 9 leaves no
// sample beyond it), which is why a library workload's cycle has ten
// inputs and daemon-dse measures >= 100 jobs.
func percentile(samples []float64, p float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// median averages the two middle samples of an even-sized set.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// quartiles returns the cut points of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method),
// the definition the benchmark contract measures spread with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	m := len(values)
	if m < 2 {
		if m == 1 {
			return values[0], values[0], values[0]
		}
		return 0, 0, 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — 0
// for fewer than two values or a zero median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(values)
	med := median(values)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}
