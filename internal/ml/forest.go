package ml

import (
	"errors"
	"math/rand"

	"macroflow/internal/obs"
)

// RandomForest averages the predictions of bootstrap-trained regression
// trees (§VI-B: 1,000 trees of depth 20) and aggregates their
// impurity-based feature importance.
type RandomForest struct {
	// Trees is the ensemble size (default 1000).
	Trees int
	// MaxDepth bounds each tree (default 20).
	MaxDepth int
	// MinLeaf is the per-leaf minimum (default 2).
	MinLeaf int
	// MTry is the per-split feature subsample; 0 means max(1, p/3).
	MTry int
	// Seed makes bootstrapping deterministic.
	Seed int64

	forest     []*DecisionTree
	importance []float64
}

var _ Model = (*RandomForest)(nil)
var _ Importancer = (*RandomForest)(nil)

// Fit trains the ensemble; trees are built in parallel with
// deterministic per-tree seeds, so results do not depend on scheduling.
// When trees fail, the lowest-indexed one's error is returned.
func (rf *RandomForest) Fit(X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return errors.New("ml: empty or mismatched training data")
	}
	if rf.Trees <= 0 {
		rf.Trees = 1000
	}
	if rf.MaxDepth <= 0 {
		rf.MaxDepth = 20
	}
	if rf.MinLeaf <= 0 {
		rf.MinLeaf = 2
	}
	p := len(X[0])
	mtry := rf.MTry
	if mtry <= 0 {
		mtry = p / 3
		if mtry < 1 {
			mtry = 1
		}
	}
	rf.forest = make([]*DecisionTree, rf.Trees)

	errs := make([]error, rf.Trees)
	obs.Each(0, rf.Trees, func(ti, _ int) {
		rng := rand.New(rand.NewSource(rf.Seed + int64(ti)*7919))
		// Bootstrap sample with replacement.
		bx := make([][]float64, len(X))
		by := make([]float64, len(y))
		for i := range bx {
			j := rng.Intn(len(X))
			bx[i] = X[j]
			by[i] = y[j]
		}
		tree := &DecisionTree{
			MaxDepth: rf.MaxDepth,
			MinLeaf:  rf.MinLeaf,
			MTry:     mtry,
			Seed:     rf.Seed + int64(ti)*104729,
		}
		if errs[ti] = tree.Fit(bx, by); errs[ti] == nil {
			rf.forest[ti] = tree
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Aggregate importance deterministically in tree order.
	rf.importance = make([]float64, p)
	for _, tree := range rf.forest {
		for i, v := range tree.FeatureImportance() {
			rf.importance[i] += v
		}
	}
	total := 0.0
	for _, v := range rf.importance {
		total += v
	}
	if total > 0 {
		for i := range rf.importance {
			rf.importance[i] /= total
		}
	}
	return nil
}

// Predict implements Model by averaging the ensemble.
func (rf *RandomForest) Predict(x []float64) float64 {
	if len(rf.forest) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range rf.forest {
		s += t.Predict(x)
	}
	return s / float64(len(rf.forest))
}

// FeatureImportance returns the normalized aggregate importance.
func (rf *RandomForest) FeatureImportance() []float64 {
	out := make([]float64, len(rf.importance))
	copy(out, rf.importance)
	return out
}
