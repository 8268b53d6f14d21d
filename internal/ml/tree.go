package ml

import (
	"errors"
	"math/rand"
	"sort"
)

// DecisionTree is a CART regression tree with variance-reduction splits,
// the paper's reduced-complexity estimator (§VI-B, depth 20).
type DecisionTree struct {
	// MaxDepth bounds the tree depth (default 20).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 2).
	MinLeaf int
	// MTry, when positive, considers only a random subset of features
	// per split (used by the random forest); 0 means all features.
	MTry int
	// Seed drives the MTry subsampling.
	Seed int64

	nodes      []treeNode
	importance []float64
	p          int
}

var _ Model = (*DecisionTree)(nil)
var _ Importancer = (*DecisionTree)(nil)

type treeNode struct {
	feature     int     // -1 for leaf
	threshold   float64 // go left if x[feature] <= threshold
	left, right int32
	value       float64 // leaf prediction
}

// Fit builds the tree.
func (t *DecisionTree) Fit(X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return errors.New("ml: empty or mismatched training data")
	}
	if t.MaxDepth <= 0 {
		t.MaxDepth = 20
	}
	if t.MinLeaf <= 0 {
		t.MinLeaf = 2
	}
	t.p = len(X[0])
	t.nodes = t.nodes[:0]
	t.importance = make([]float64, t.p)
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(t.Seed + 7))
	t.build(X, y, idx, 0, rng)
	// Normalize importance to sum 1.
	total := 0.0
	for _, v := range t.importance {
		total += v
	}
	if total > 0 {
		for i := range t.importance {
			t.importance[i] /= total
		}
	}
	return nil
}

// build grows a subtree over the samples in idx and returns its node id.
func (t *DecisionTree) build(X [][]float64, y []float64, idx []int, depth int, rng *rand.Rand) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, treeNode{feature: -1})
	if len(idx) == 0 {
		return id // defensive: empty nodes predict 0
	}

	s, s2 := 0.0, 0.0
	for _, i := range idx {
		s += y[i]
		s2 += y[i] * y[i]
	}
	n := float64(len(idx))
	t.nodes[id].value = s / n
	sse := s2 - s*s/n

	if depth >= t.MaxDepth || len(idx) < 2*t.MinLeaf || sse <= 1e-12 {
		return id
	}

	feats := t.candidateFeatures(rng)
	bestGain, bestFeat := 0.0, -1
	var bestThr float64
	sorted := make([]int, len(idx))
	for _, f := range feats {
		copy(sorted, idx)
		sort.SliceStable(sorted, func(a, b int) bool { return X[sorted[a]][f] < X[sorted[b]][f] })
		// Prefix sums over the sorted order.
		ls, ls2 := 0.0, 0.0
		for k := 0; k < len(sorted)-1; k++ {
			i := sorted[k]
			ls += y[i]
			ls2 += y[i] * y[i]
			if X[sorted[k]][f] == X[sorted[k+1]][f] {
				continue // cannot split between equal values
			}
			nl := float64(k + 1)
			nr := n - nl
			if int(nl) < t.MinLeaf || int(nr) < t.MinLeaf {
				continue
			}
			rs := s - ls
			rs2 := s2 - ls2
			gain := sse - (ls2 - ls*ls/nl) - (rs2 - rs*rs/nr)
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeat = f
				bestThr = (X[sorted[k]][f] + X[sorted[k+1]][f]) / 2
			}
		}
	}
	if bestFeat < 0 {
		return id
	}

	var left, right []int
	for _, i := range idx {
		if X[i][bestFeat] <= bestThr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return id // degenerate split (e.g. NaN features): keep the leaf
	}
	t.importance[bestFeat] += bestGain
	t.nodes[id].feature = bestFeat
	t.nodes[id].threshold = bestThr
	t.nodes[id].left = t.build(X, y, left, depth+1, rng)
	t.nodes[id].right = t.build(X, y, right, depth+1, rng)
	return id
}

func (t *DecisionTree) candidateFeatures(rng *rand.Rand) []int {
	all := make([]int, t.p)
	for i := range all {
		all[i] = i
	}
	if t.MTry <= 0 || t.MTry >= t.p {
		return all
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:t.MTry]
}

// Predict implements Model.
func (t *DecisionTree) Predict(x []float64) float64 {
	if len(t.nodes) == 0 {
		return 0
	}
	id := int32(0)
	for {
		nd := &t.nodes[id]
		if nd.feature < 0 {
			return nd.value
		}
		if nd.feature < len(x) && x[nd.feature] <= nd.threshold {
			id = nd.left
		} else {
			id = nd.right
		}
	}
}

// FeatureImportance returns normalized variance-reduction importance.
func (t *DecisionTree) FeatureImportance() []float64 {
	out := make([]float64, len(t.importance))
	copy(out, t.importance)
	return out
}

// Depth returns the maximum depth of the fitted tree (root = 0).
func (t *DecisionTree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	var walk func(id int32) int
	walk = func(id int32) int {
		nd := &t.nodes[id]
		if nd.feature < 0 {
			return 0
		}
		l, r := walk(nd.left), walk(nd.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}
