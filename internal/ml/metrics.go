package ml

import "sort"

// MeanRelError returns the mean of |pred-true|/true over the samples —
// the paper's Table II metric.
func MeanRelError(pred, truth []float64) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		if d < 0 {
			d = -d
		}
		t := truth[i]
		if t == 0 {
			t = 1
		}
		s += d / t
	}
	return s / float64(len(pred))
}

// MedianAbsRelError returns the median of |pred-true|/true — the §VIII
// per-design metric (Figs. 11/12).
func MedianAbsRelError(pred, truth []float64) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0
	}
	errs := make([]float64, len(pred))
	for i := range pred {
		d := pred[i] - truth[i]
		if d < 0 {
			d = -d
		}
		t := truth[i]
		if t == 0 {
			t = 1
		}
		errs[i] = d / t
	}
	sort.Float64s(errs)
	n := len(errs)
	if n%2 == 1 {
		return errs[n/2]
	}
	return (errs[n/2-1] + errs[n/2]) / 2
}

// PredictAll evaluates a model over a matrix of rows.
func PredictAll(m Model, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = m.Predict(x)
	}
	return out
}

// FractionWithin returns the share of predictions whose relative error
// is at most tol (the paper's "31.75% below 4%" style statistic).
func FractionWithin(pred, truth []float64, tol float64) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0
	}
	n := 0
	for i := range pred {
		d := pred[i] - truth[i]
		if d < 0 {
			d = -d
		}
		t := truth[i]
		if t == 0 {
			t = 1
		}
		if d/t <= tol {
			n++
		}
	}
	return float64(n) / float64(len(pred))
}
