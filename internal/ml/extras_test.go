package ml

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestKFoldCV(t *testing.T) {
	X, y := makeNonlinear(200, 11)
	res, err := KFoldCV(5, X, y, 3, func() Model {
		return &DecisionTree{MaxDepth: 10}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FoldErrors) != 5 {
		t.Fatalf("folds = %d, want 5", len(res.FoldErrors))
	}
	if res.Mean <= 0 || res.Mean > 0.5 {
		t.Errorf("implausible CV mean %.3f", res.Mean)
	}
	if res.Std < 0 {
		t.Errorf("negative std %.3f", res.Std)
	}
}

func TestKFoldCVRejectsBadInput(t *testing.T) {
	X, y := makeNonlinear(10, 1)
	if _, err := KFoldCV(1, X, y, 1, nil); err == nil {
		t.Error("k=1 must fail")
	}
	if _, err := KFoldCV(20, X, y, 1, nil); err == nil {
		t.Error("k > n must fail")
	}
}

func roundTrip(t *testing.T, m Model) Model {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSerializeRoundTrips(t *testing.T) {
	X, y := makeNonlinear(150, 21)
	probe := [][]float64{{0.3, 0.8}, {1.7, 0.2}, {1.0, 1.0}}

	models := []Model{}
	lr := &LinearRegression{}
	if err := lr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	models = append(models, lr)
	nn := &NeuralNet{Hidden: 10, Epochs: 60, Seed: 2}
	if err := nn.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	models = append(models, nn)
	dt := &DecisionTree{MaxDepth: 8}
	if err := dt.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	models = append(models, dt)
	rf := &RandomForest{Trees: 15, MaxDepth: 8, Seed: 4}
	if err := rf.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	models = append(models, rf)

	for _, m := range models {
		got := roundTrip(t, m)
		for _, x := range probe {
			a, b := m.Predict(x), got.Predict(x)
			if math.Abs(a-b) > 1e-12 {
				t.Errorf("%T: prediction changed after round trip: %f vs %f", m, a, b)
			}
		}
	}
	// Importance must survive for tree models.
	rtRF := roundTrip(t, rf).(*RandomForest)
	want := rf.FeatureImportance()
	got := rtRF.FeatureImportance()
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-12 {
			t.Errorf("forest importance changed after round trip")
		}
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("not json")); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := LoadModel(strings.NewReader(`{"kind":"alien"}`)); err == nil {
		t.Error("unknown kind must fail")
	}
	if _, err := LoadModel(strings.NewReader(`{"kind":"nn"}`)); err == nil {
		t.Error("missing payload must fail")
	}
}

func TestNeuralNetDropoutTrains(t *testing.T) {
	Xtr, ytr := makeNonlinear(400, 31)
	Xte, yte := makeNonlinear(100, 32)
	nn := &NeuralNet{Hidden: 25, Epochs: 200, Dropout: 0.2, Seed: 5}
	if err := nn.Fit(Xtr, ytr); err != nil {
		t.Fatal(err)
	}
	errRate := MeanRelError(PredictAll(nn, Xte), yte)
	if errRate > 0.25 {
		t.Errorf("dropout training diverged: %.3f", errRate)
	}
	// Determinism under dropout.
	nn2 := &NeuralNet{Hidden: 25, Epochs: 200, Dropout: 0.2, Seed: 5}
	if err := nn2.Fit(Xtr, ytr); err != nil {
		t.Fatal(err)
	}
	if nn.Predict(Xte[0]) != nn2.Predict(Xte[0]) {
		t.Error("dropout must be seed-deterministic")
	}
}
