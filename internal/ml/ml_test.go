package ml

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestLinearRegressionRecoversLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, 200)
	y := make([]float64, 200)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64() * 10, rng.Float64() * 3}
		y[i] = 1.5 + 2*X[i][0] - 0.3*X[i][1] + 0.7*X[i][2]
	}
	lr := &LinearRegression{}
	if err := lr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2, -0.3, 0.7}
	for i, w := range want {
		if math.Abs(lr.Weights[i]-w) > 1e-6 {
			t.Errorf("weight %d = %f, want %f", i, lr.Weights[i], w)
		}
	}
	if got := lr.Predict([]float64{0.5, 5, 1}); math.Abs(got-(1.5+1-1.5+0.7)) > 1e-6 {
		t.Errorf("prediction = %f", got)
	}
}

func TestLinearRegressionRejectsBadInput(t *testing.T) {
	lr := &LinearRegression{}
	if err := lr.Fit(nil, nil); err == nil {
		t.Error("empty data must fail")
	}
	if err := lr.Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows must fail")
	}
}

func TestDecisionTreeFitsStepFunction(t *testing.T) {
	X := make([][]float64, 100)
	y := make([]float64, 100)
	for i := range X {
		v := float64(i) / 100
		X[i] = []float64{v, 0.5} // second feature is constant noise
		if v < 0.3 {
			y[i] = 1.0
		} else {
			y[i] = 2.0
		}
	}
	dt := &DecisionTree{MaxDepth: 4}
	if err := dt.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := dt.Predict([]float64{0.1, 0.5}); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("predict(0.1) = %f, want 1.0", got)
	}
	if got := dt.Predict([]float64{0.9, 0.5}); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("predict(0.9) = %f, want 2.0", got)
	}
	imp := dt.FeatureImportance()
	if imp[0] < 0.99 {
		t.Errorf("informative feature importance = %f, want ~1", imp[0])
	}
	if s := imp[0] + imp[1]; math.Abs(s-1) > 1e-9 {
		t.Errorf("importance sum = %f, want 1", s)
	}
}

func TestDecisionTreeRespectsDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X := make([][]float64, 500)
	y := make([]float64, 500)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = rng.Float64()
	}
	dt := &DecisionTree{MaxDepth: 3, MinLeaf: 1}
	if err := dt.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if d := dt.Depth(); d > 3 {
		t.Errorf("depth = %d, want <= 3", d)
	}
}

func TestDecisionTreeMinLeaf(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}}
	y := []float64{0, 1, 2}
	dt := &DecisionTree{MaxDepth: 10, MinLeaf: 2}
	if err := dt.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// With MinLeaf 2 and 3 samples only one split (2|1 forbidden -> none)
	// or a 2/1 split is forbidden entirely; depth must be 0.
	if dt.Depth() != 0 {
		t.Errorf("depth = %d, want 0 (no legal split)", dt.Depth())
	}
}

func nonlinear(x []float64) float64 {
	return math.Sin(3*x[0]) + 0.5*x[1]*x[1]
}

func makeNonlinear(n int, seed int64) ([][]float64, []float64) {
	return makeNonlinearNoisy(n, seed, 0)
}

func makeNonlinearNoisy(n int, seed int64, noise float64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 2, rng.Float64() * 2}
		// Keep targets positive for relative error metrics.
		y[i] = nonlinear(X[i]) + 1.5 + noise*rng.NormFloat64()
	}
	return X, y
}

func TestRandomForestBeatsSingleTreeOnHoldout(t *testing.T) {
	// Noisy targets: a single deep tree overfits the noise, the
	// bootstrap-averaged forest does not — the paper's Table II effect.
	Xtr, ytr := makeNonlinearNoisy(400, 3, 0.15)
	Xte, yte := makeNonlinear(100, 4)

	dt := &DecisionTree{MaxDepth: 20}
	if err := dt.Fit(Xtr, ytr); err != nil {
		t.Fatal(err)
	}
	rf := &RandomForest{Trees: 150, MaxDepth: 20, MTry: 2, Seed: 5}
	if err := rf.Fit(Xtr, ytr); err != nil {
		t.Fatal(err)
	}
	dtErr := MeanRelError(PredictAll(dt, Xte), yte)
	rfErr := MeanRelError(PredictAll(rf, Xte), yte)
	if rfErr >= dtErr {
		t.Errorf("forest (%.4f) must beat single tree (%.4f) on holdout", rfErr, dtErr)
	}
	imp := rf.FeatureImportance()
	if s := imp[0] + imp[1]; math.Abs(s-1) > 1e-9 {
		t.Errorf("importance sum = %f, want 1", s)
	}
}

// TestRandomForestDeterministic: the same seed fits the same forest on
// one core and on four — the trees run on however many workers pull
// them, and the importance is summed in tree order, so both the
// prediction and the importance vector agree bit for bit.
func TestRandomForestDeterministic(t *testing.T) {
	X, y := makeNonlinear(150, 6)
	fit := func(procs int) *RandomForest {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		rf := &RandomForest{Trees: 20, Seed: 9}
		if err := rf.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		return rf
	}
	a, b := fit(1), fit(4)
	probe := []float64{1.0, 1.0}
	if a.Predict(probe) != b.Predict(probe) {
		t.Error("same seed must give identical forests at GOMAXPROCS 1 and 4")
	}
	ia, ib := a.FeatureImportance(), b.FeatureImportance()
	for i := range ia {
		if math.Float64bits(ia[i]) != math.Float64bits(ib[i]) {
			t.Errorf("importance[%d] = %v at GOMAXPROCS 1, %v at 4", i, ia[i], ib[i])
		}
	}
}

func TestNeuralNetFitsNonlinearFunction(t *testing.T) {
	Xtr, ytr := makeNonlinear(600, 7)
	Xte, yte := makeNonlinear(150, 8)
	nn := &NeuralNet{Hidden: 25, Epochs: 300, Seed: 1}
	if err := nn.Fit(Xtr, ytr); err != nil {
		t.Fatal(err)
	}
	err := MeanRelError(PredictAll(nn, Xte), yte)
	if err > 0.10 {
		t.Errorf("NN holdout relative error = %.4f, want <= 0.10", err)
	}
}

func TestNeuralNetDeterministic(t *testing.T) {
	X, y := makeNonlinear(100, 10)
	a := &NeuralNet{Hidden: 8, Epochs: 50, Seed: 3}
	b := &NeuralNet{Hidden: 8, Epochs: 50, Seed: 3}
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.7, 1.2}
	if a.Predict(probe) != b.Predict(probe) {
		t.Error("same seed must give identical networks")
	}
}

func TestMetrics(t *testing.T) {
	pred := []float64{1.1, 0.9, 2.0}
	truth := []float64{1.0, 1.0, 1.0}
	if got := MeanRelError(pred, truth); math.Abs(got-(0.1+0.1+1.0)/3) > 1e-9 {
		t.Errorf("MeanRelError = %f", got)
	}
	if got := MedianAbsRelError(pred, truth); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("MedianAbsRelError = %f", got)
	}
	if got := FractionWithin(pred, truth, 0.15); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("FractionWithin = %f", got)
	}
}

func TestFeatureSetVectorsMatchNames(t *testing.T) {
	f := Features{
		LUTs: 100, CLBMs: 5, FFs: 80, ControlSets: 4, Carrys: 10,
		MaxFanout: 30, ShapeW: 4, ShapeH: 6, ShapeArea: 24,
		EstSlices: 25, TotalCells: 200, BRAMs: 0,
	}
	for _, fs := range []FeatureSet{Classical, ClassicalPlacement, Additional, All, LinRegSet} {
		v := fs.Vector(f)
		n := fs.Names()
		if len(v) != len(n) {
			t.Errorf("%s: vector len %d != names len %d", fs, len(v), len(n))
		}
	}
	if LinRegSet.String() == "?" || FeatureSet(99).String() != "?" {
		t.Error("String() misbehaves")
	}
}

func TestAdditionalFeaturesAreSizeInvariant(t *testing.T) {
	base := Features{
		LUTs: 100, CLBMs: 5, FFs: 80, ControlSets: 4, Carrys: 10,
		MaxFanout: 30, EstSlices: 25, TotalCells: 200,
	}
	scaled := base
	k := 8.0
	scaled.LUTs *= k
	scaled.CLBMs *= k
	scaled.FFs *= k
	scaled.ControlSets *= k
	scaled.Carrys *= k
	scaled.MaxFanout *= k
	scaled.EstSlices *= k
	scaled.TotalCells *= k
	a := Additional.Vector(base)
	b := Additional.Vector(scaled)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Errorf("%s not size-invariant: %f vs %f",
				Additional.Names()[i], a[i], b[i])
		}
	}
}

// Property: tree predictions are always within the range of training
// targets (a regression tree predicts leaf means).
func TestTreePredictionWithinRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(100)
		X := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range X {
			X[i] = []float64{rng.Float64() * 5, rng.Float64()}
			y[i] = rng.Float64() * 10
			lo = math.Min(lo, y[i])
			hi = math.Max(hi, y[i])
		}
		dt := &DecisionTree{MaxDepth: 8}
		if dt.Fit(X, y) != nil {
			return false
		}
		for k := 0; k < 20; k++ {
			p := dt.Predict([]float64{rng.Float64() * 5, rng.Float64()})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
