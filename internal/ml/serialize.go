package ml

import (
	"encoding/json"
	"fmt"
	"io"
)

// SaveModel serializes a trained model as JSON with a type tag, so a
// trained estimator can be stored next to a design and reloaded without
// regenerating the dataset.
func SaveModel(w io.Writer, m Model) error {
	env := envelope{}
	switch t := m.(type) {
	case *LinearRegression:
		env.Kind = "linreg"
		env.LinReg = t
	case *NeuralNet:
		env.Kind = "nn"
		env.NN = t.dto()
	case *DecisionTree:
		env.Kind = "dtree"
		env.Tree = t.dto()
	case *RandomForest:
		env.Kind = "rforest"
		env.Forest = &forestDTO{Trees: make([]*treeDTO, len(t.forest)), Importance: t.importance}
		for i, tr := range t.forest {
			env.Forest.Trees[i] = tr.dto()
		}
	default:
		return fmt.Errorf("ml: cannot serialize %T", m)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&env)
}

// LoadModel deserializes a model written by SaveModel.
func LoadModel(r io.Reader) (Model, error) {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("ml: load model: %w", err)
	}
	switch env.Kind {
	case "linreg":
		if env.LinReg == nil {
			return nil, fmt.Errorf("ml: missing linreg payload")
		}
		return env.LinReg, nil
	case "nn":
		if env.NN == nil {
			return nil, fmt.Errorf("ml: missing nn payload")
		}
		return env.NN.model(), nil
	case "dtree":
		if env.Tree == nil {
			return nil, fmt.Errorf("ml: missing tree payload")
		}
		return env.Tree.model(), nil
	case "rforest":
		if env.Forest == nil {
			return nil, fmt.Errorf("ml: missing forest payload")
		}
		rf := &RandomForest{importance: env.Forest.Importance}
		rf.Trees = len(env.Forest.Trees)
		for _, td := range env.Forest.Trees {
			rf.forest = append(rf.forest, td.model())
		}
		return rf, nil
	}
	return nil, fmt.Errorf("ml: unknown model kind %q", env.Kind)
}

type envelope struct {
	Kind   string            `json:"kind"`
	LinReg *LinearRegression `json:"linreg,omitempty"`
	NN     *nnDTO            `json:"nn,omitempty"`
	Tree   *treeDTO          `json:"tree,omitempty"`
	Forest *forestDTO        `json:"forest,omitempty"`
}

type nnDTO struct {
	Hidden int       `json:"hidden"`
	P      int       `json:"p"`
	W1     []float64 `json:"w1"`
	B1     []float64 `json:"b1"`
	W2     []float64 `json:"w2"`
	B2     float64   `json:"b2"`
	Mean   []float64 `json:"mean"`
	Std    []float64 `json:"std"`
}

func (n *NeuralNet) dto() *nnDTO {
	return &nnDTO{
		Hidden: n.Hidden, P: n.p,
		W1: n.w1, B1: n.b1, W2: n.w2, B2: n.b2,
		Mean: n.mean, Std: n.std,
	}
}

func (d *nnDTO) model() *NeuralNet {
	return &NeuralNet{
		Hidden: d.Hidden, p: d.P,
		w1: d.W1, b1: d.B1, w2: d.W2, b2: d.B2,
		mean: d.Mean, std: d.Std,
	}
}

type nodeDTO struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Left      int32   `json:"l"`
	Right     int32   `json:"r"`
	Value     float64 `json:"v"`
}

type treeDTO struct {
	Nodes      []nodeDTO `json:"nodes"`
	Importance []float64 `json:"importance,omitempty"`
	P          int       `json:"p"`
}

func (t *DecisionTree) dto() *treeDTO {
	d := &treeDTO{Importance: t.importance, P: t.p}
	for _, nd := range t.nodes {
		d.Nodes = append(d.Nodes, nodeDTO{
			Feature: nd.feature, Threshold: nd.threshold,
			Left: nd.left, Right: nd.right, Value: nd.value,
		})
	}
	return d
}

func (d *treeDTO) model() *DecisionTree {
	t := &DecisionTree{importance: d.Importance, p: d.P}
	for _, nd := range d.Nodes {
		t.nodes = append(t.nodes, treeNode{
			feature: nd.Feature, threshold: nd.Threshold,
			left: nd.Left, right: nd.Right, value: nd.Value,
		})
	}
	return t
}

type forestDTO struct {
	Trees      []*treeDTO `json:"trees"`
	Importance []float64  `json:"importance,omitempty"`
}
