package macroflow

import (
	"bytes"
	"strings"
	"testing"

	"macroflow/internal/ml"
)

// tinyFitModel fits one model of each family on a minimal synthetic
// dataset, just enough for serialization to have real content.
func tinyFitModel(t testing.TB, kind EstimatorKind) ml.Model {
	t.Helper()
	var model ml.Model
	switch kind {
	case LinearRegression:
		model = &ml.LinearRegression{}
	case NeuralNetwork:
		model = &ml.NeuralNet{Hidden: 2, Epochs: 5, Seed: 1}
	case DecisionTree:
		model = &ml.DecisionTree{MaxDepth: 3, Seed: 1}
	case RandomForest:
		model = &ml.RandomForest{Trees: 3, MaxDepth: 3, Seed: 1}
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	n := len(ml.LinRegSet.Names())
	X := make([][]float64, 12)
	y := make([]float64, 12)
	for i := range X {
		X[i] = make([]float64, n)
		for j := range X[i] {
			X[i][j] = float64((i*7 + j*3) % 11)
		}
		y[i] = 0.9 + 0.02*float64(i%8)
	}
	if err := model.Fit(X, y); err != nil {
		t.Fatalf("fit %s: %v", kind, err)
	}
	return model
}

// allEstimatorKinds lists every model family Save/Load must round-trip.
var allEstimatorKinds = []EstimatorKind{
	LinearRegression, NeuralNetwork, DecisionTree, RandomForest,
}

// FuzzEstimatorRoundTrip feeds arbitrary bytes to LoadEstimator (which
// must never panic) and, for accepted inputs, requires Save→Load→Save to
// be byte-stable. The seed corpus holds a saved estimator of each of the
// four model families, so the mutator starts from every serialization
// shape the format supports — plus savedGboost and, in testdata, a file
// the parent of the commit that removed gradient boosting wrote: a family
// since removed must be turned away like any other unknown kind.
func FuzzEstimatorRoundTrip(f *testing.F) {
	for _, kind := range allEstimatorKinds {
		e := &Estimator{model: tinyFitModel(f, kind), fs: ml.LinRegSet, kind: kind}
		var buf bytes.Buffer
		if err := SaveEstimator(&buf, e); err != nil {
			f.Fatalf("save %s: %v", kind, err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("{}"))
	f.Add([]byte(`{"kind":"linreg","featureSet":"nope","model":{}}`))
	f.Add([]byte("not json at all"))
	f.Add([]byte(savedGboost))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := LoadEstimator(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only the no-panic guarantee applies
		}
		var first bytes.Buffer
		if err := SaveEstimator(&first, e); err != nil {
			t.Fatalf("re-save of loaded estimator failed: %v", err)
		}
		e2, err := LoadEstimator(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-load of saved estimator failed: %v", err)
		}
		var second bytes.Buffer
		if err := SaveEstimator(&second, e2); err != nil {
			t.Fatalf("second save failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip not stable:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
		if e.Kind() != e2.Kind() {
			t.Fatalf("kind changed across round trip: %q -> %q", e.Kind(), e2.Kind())
		}
	})
}

// TestEstimatorRoundTripAllKinds pins the four-family Save/Load
// round-trip as a plain test, so it runs even when fuzzing is skipped.
func TestEstimatorRoundTripAllKinds(t *testing.T) {
	for _, kind := range allEstimatorKinds {
		e := &Estimator{model: tinyFitModel(t, kind), fs: ml.LinRegSet, kind: kind}
		var buf bytes.Buffer
		if err := SaveEstimator(&buf, e); err != nil {
			t.Fatalf("save %s: %v", kind, err)
		}
		got, err := LoadEstimator(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("load %s: %v", kind, err)
		}
		if got.Kind() != kind {
			t.Errorf("kind %s loaded as %s", kind, got.Kind())
		}
		var again bytes.Buffer
		if err := SaveEstimator(&again, got); err != nil {
			t.Fatalf("re-save %s: %v", kind, err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Errorf("%s: serialization not byte-stable", kind)
		}
	}
}

// savedGboost is an estimator file as SaveEstimator wrote it while
// gradient boosting was a fifth family.
const savedGboost = `{"kind":"gboost","featureSet":"LinReg9","model":{"kind":"gboost","boost":{"base":0.95,"lr":0.1,"stages":[{"nodes":[{"f":-1,"t":0,"l":0,"r":0,"v":0.02}],"p":10}]}}}`

// TestLoadEstimatorRejectsRemovedKind: a file saved when gradient
// boosting was a fifth family is an unknown kind to the loader, not a
// panic and not a silently different model.
func TestLoadEstimatorRejectsRemovedKind(t *testing.T) {
	_, err := LoadEstimator(strings.NewReader(savedGboost))
	if err == nil || !strings.Contains(err.Error(), `ml: unknown model kind "gboost"`) {
		t.Fatalf("LoadEstimator of a gboost file: err = %v, want ml: unknown model kind \"gboost\"", err)
	}
}

// TestLoadEstimatorRejectsNonFiniteWeights: a weight, threshold or leaf
// value out of float64's range in an estimator file is a load error, so
// no loaded model carries an infinite or NaN weight. JSON has no NaN or
// infinity, and encoding/json refuses a number it would round to one;
// an estimator whose finite weights still predict a CF that is not a
// finite number > 0 is refused per block by pblock.ErrEstimate.
func TestLoadEstimatorRejectsNonFiniteWeights(t *testing.T) {
	first := map[EstimatorKind]string{
		LinearRegression: `"Weights":[`,
		NeuralNetwork:    `"w1":[`,
		DecisionTree:     `"v":`,
		RandomForest:     `"v":`,
	}
	for _, kind := range allEstimatorKinds {
		var buf bytes.Buffer
		if err := SaveEstimator(&buf, &Estimator{model: tinyFitModel(t, kind), fs: ml.LinRegSet, kind: kind}); err != nil {
			t.Fatal(err)
		}
		saved := buf.String()
		at := strings.Index(saved, first[kind])
		if at < 0 {
			t.Fatalf("%s: no %s in %s", kind, first[kind], saved)
		}
		at += len(first[kind])
		end := at + strings.IndexAny(saved[at:], ",]}")
		for _, bad := range []string{"1e400", "-1e400", "NaN", "Infinity"} {
			file := saved[:at] + bad + saved[end:]
			if e, err := LoadEstimator(strings.NewReader(file)); err == nil {
				t.Errorf("%s with weight %s loaded: %+v", kind, bad, e)
			}
		}
	}
}
