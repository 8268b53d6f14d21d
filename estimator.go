package macroflow

import (
	"fmt"
	"sort"

	"macroflow/internal/dataset"
	"macroflow/internal/ml"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
)

// EstimatorKind selects one of the paper's four model families.
type EstimatorKind string

// The estimator families of §VI-B.
const (
	LinearRegression EstimatorKind = "linreg"
	NeuralNetwork    EstimatorKind = "nn"
	DecisionTree     EstimatorKind = "dtree"
	RandomForest     EstimatorKind = "rforest"
)

// FeatureSetKind selects the Table II feature set.
type FeatureSetKind string

// The feature sets of §VII.
const (
	FeaturesClassical          FeatureSetKind = "classical"
	FeaturesClassicalPlacement FeatureSetKind = "classical+placement"
	FeaturesAdditional         FeatureSetKind = "additional"
	FeaturesAll                FeatureSetKind = "all"
)

func (k FeatureSetKind) internal() (ml.FeatureSet, error) {
	switch k {
	case FeaturesClassical:
		return ml.Classical, nil
	case FeaturesClassicalPlacement:
		return ml.ClassicalPlacement, nil
	case FeaturesAdditional:
		return ml.Additional, nil
	case FeaturesAll:
		return ml.All, nil
	}
	return 0, fmt.Errorf("macroflow: unknown feature set %q", k)
}

// Estimator is a trained correction-factor predictor.
type Estimator struct {
	model ml.Model
	fs    ml.FeatureSet
	kind  EstimatorKind
}

// Kind returns the estimator family.
func (e *Estimator) Kind() EstimatorKind { return e.kind }

// WithBias returns a derived estimator that adds delta to every
// prediction. This is the paper's §VIII knob: a negative bias
// (underestimation) costs extra tool runs but yields more compact,
// area-efficient PBlocks; a positive bias buys first-run success at the
// price of looser area constraints.
func (e *Estimator) WithBias(delta float64) *Estimator {
	return &Estimator{model: biasedModel{e.model, delta}, fs: e.fs, kind: e.kind}
}

// biasedModel shifts another model's predictions by a constant.
type biasedModel struct {
	ml.Model
	delta float64
}

// Predict implements ml.Model.
func (b biasedModel) Predict(x []float64) float64 { return b.Model.Predict(x) + b.delta }

func (e *Estimator) predict(rep place.ShapeReport) float64 {
	return e.model.Predict(e.fs.Vector(ml.Extract(rep)))
}

// PredictSpec returns the estimated minimal CF of a spec without
// implementing it.
func (f *Flow) PredictSpec(e *Estimator, s *Spec) (float64, error) {
	_, rep, err := pblock.FrontEnd(s.inner, nil)
	if err != nil {
		return 0, err
	}
	return e.predict(rep), nil
}

// TrainOptions configures dataset generation and training.
type TrainOptions struct {
	// Modules is the generated dataset size before balancing (paper:
	// ~2,000). Default 2000.
	Modules int
	// Seed drives generation, balancing, splitting and model init.
	Seed int64
	// CapPerBin balances the CF histogram (paper: 75). Default 75.
	CapPerBin int
	// Trees is the random-forest size (paper: 1,000). Default 1000.
	Trees int
	// Epochs is the neural-network training length. Default 600.
	Epochs int
}

func (o *TrainOptions) defaults() {
	if o.Modules <= 0 {
		o.Modules = 2000
	}
	if o.CapPerBin <= 0 {
		o.CapPerBin = 75
	}
	if o.Trees <= 0 {
		o.Trees = 1000
	}
	if o.Epochs <= 0 {
		o.Epochs = 600
	}
}

// TrainReport summarizes a training run.
type TrainReport struct {
	// Labeled is the number of modules the oracle could label.
	Labeled int
	// Balanced is the dataset size after per-bin capping.
	Balanced int
	// TrainN and TestN are the 80/20 split sizes.
	TrainN, TestN int
	// MeanRelError is the held-out mean relative error (Table II).
	MeanRelError float64
	// MedianAbsRelError is the held-out median absolute relative error.
	MedianAbsRelError float64
	// Importance maps feature name to importance for tree models
	// (sums to 1); nil for linear regression and the neural network.
	Importance map[string]float64
}

// TrainEstimator generates the labeled RTL dataset on the flow's device,
// balances it, splits 80/20, trains the requested model on the feature
// set, and evaluates it on the held-out part.
func (f *Flow) TrainEstimator(kind EstimatorKind, features FeatureSetKind, opts TrainOptions) (*Estimator, TrainReport, error) {
	opts.defaults()
	fs, err := features.internal()
	if err != nil {
		return nil, TrainReport{}, err
	}
	if kind == LinearRegression {
		fs = ml.LinRegSet // the paper's fixed nine-input set
	}

	cfg := dataset.DefaultConfig()
	cfg.Modules = opts.Modules
	cfg.Seed = opts.Seed
	cfg.Device = f.dev
	cfg.Search = f.search
	cfg.Flow = f.cfg
	samples, err := dataset.Generate(cfg)
	if err != nil {
		return nil, TrainReport{}, err
	}
	balanced := dataset.Balance(samples, opts.CapPerBin, opts.Seed)
	train, test := dataset.Split(balanced, 0.8, opts.Seed)

	var model ml.Model
	switch kind {
	case LinearRegression:
		model = &ml.LinearRegression{}
	case NeuralNetwork:
		model = &ml.NeuralNet{Hidden: 25, Epochs: opts.Epochs, Seed: opts.Seed}
	case DecisionTree:
		model = &ml.DecisionTree{MaxDepth: 20, Seed: opts.Seed}
	case RandomForest:
		model = &ml.RandomForest{Trees: opts.Trees, MaxDepth: 20, Seed: opts.Seed}
	default:
		return nil, TrainReport{}, fmt.Errorf("macroflow: unknown estimator kind %q", kind)
	}

	Xtr, ytr := dataset.Vectors(fs, train)
	Xte, yte := dataset.Vectors(fs, test)
	if err := model.Fit(Xtr, ytr); err != nil {
		return nil, TrainReport{}, err
	}
	pred := ml.PredictAll(model, Xte)

	rep := TrainReport{
		Labeled:           len(samples),
		Balanced:          len(balanced),
		TrainN:            len(train),
		TestN:             len(test),
		MeanRelError:      ml.MeanRelError(pred, yte),
		MedianAbsRelError: ml.MedianAbsRelError(pred, yte),
	}
	if imp, ok := model.(ml.Importancer); ok {
		rep.Importance = map[string]float64{}
		names := fs.Names()
		for i, v := range imp.FeatureImportance() {
			rep.Importance[names[i]] = v
		}
	}
	return &Estimator{model: model, fs: fs, kind: kind}, rep, nil
}

// TopFeatures returns the report's features sorted by importance.
func (r TrainReport) TopFeatures() []string {
	if r.Importance == nil {
		return nil
	}
	names := make([]string, 0, len(r.Importance))
	for n := range r.Importance {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if r.Importance[names[i]] != r.Importance[names[j]] {
			return r.Importance[names[i]] > r.Importance[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
