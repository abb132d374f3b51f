package strategy

import (
	"fmt"
	"math"
	"sort"

	"raven/internal/model"
	"raven/internal/opt"
	"raven/internal/train"
)

// numChoices is the size of the label space the strategies learn over:
// one class per opt.Choice, indexed by it.
const numChoices = int(opt.ChoiceDNN) + 1

// Example is one training observation: pipeline statistics plus the
// measured runtime (seconds) of each transformation.
type Example struct {
	Name     string
	F        *opt.Features
	Runtimes [numChoices]float64
}

// Best returns the choice with the lowest measured runtime.
func (e *Example) Best() opt.Choice {
	best := opt.ChoiceNone
	for c := opt.ChoiceNone; int(c) < numChoices; c++ {
		if e.Runtimes[c] < e.Runtimes[best] {
			best = c
		}
	}
	return best
}

func designMatrix(examples []*Example) (*train.Matrix, []opt.Choice) {
	x := train.NewMatrix(len(examples), opt.NumFeatures)
	y := make([]opt.Choice, len(examples))
	for i, e := range examples {
		copy(x.Row(i), e.F.V[:])
		y[i] = e.Best()
	}
	return x, y
}

// multiClassTrees is a one-vs-rest set of probability trees.
type multiClassTrees struct {
	trees [numChoices]model.Tree
}

func fitMultiClassTree(x *train.Matrix, y []opt.Choice, depth int, seed int64) (*multiClassTrees, error) {
	out := &multiClassTrees{}
	for c := opt.ChoiceNone; int(c) < numChoices; c++ {
		yc := make([]float64, len(y))
		for i, v := range y {
			if v == c {
				yc[i] = 1
			}
		}
		t, err := train.FitTree(x, yc, nil, train.TreeOptions{
			MaxDepth: depth, MinSamplesLeaf: 2, Task: model.Classification, Seed: seed + int64(c)})
		if err != nil {
			return nil, err
		}
		out.trees[c] = t
	}
	return out, nil
}

func (m *multiClassTrees) predict(f []float64) opt.Choice {
	best, bestP := opt.ChoiceNone, math.Inf(-1)
	for c := opt.ChoiceNone; int(c) < numChoices; c++ {
		if p := m.trees[c].Eval(f); p > bestP {
			bestP, best = p, c
		}
	}
	return best
}

// RuleBased is the ML-informed rule-based strategy: a depth-limited
// decision tree over the k most contributing statistics, readable as a
// rule ("if #features > 100 apply MLtoDNN; else if ...").
type RuleBased struct {
	TopFeatures []int // indices into opt.FeatureNames
	trees       *multiClassTrees
}

// TrainRuleBased fits the full-width tree, extracts the k most important
// statistics, and refits a shallow tree over just those.
func TrainRuleBased(examples []*Example, k int, seed int64) (*RuleBased, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("strategy: no training examples")
	}
	if k <= 0 {
		k = 3
	}
	x, y := designMatrix(examples)
	full, err := fitMultiClassTree(x, y, 8, seed)
	if err != nil {
		return nil, err
	}
	imp := make([]float64, opt.NumFeatures)
	for c := range full.trees {
		accumulateImportance(&full.trees[c], imp)
	}
	type fi struct {
		idx int
		w   float64
	}
	ranked := make([]fi, len(imp))
	for i, w := range imp {
		ranked[i] = fi{i, w}
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].w > ranked[b].w })
	top := make([]int, 0, k)
	for _, r := range ranked[:k] {
		if r.w > 0 {
			top = append(top, r.idx)
		}
	}
	if len(top) == 0 {
		top = []int{1} // num_features as a sane default
	}
	sort.Ints(top)
	// Refit a shallow tree on the selected statistics only.
	xs := train.NewMatrix(x.Rows, len(top))
	for i := 0; i < x.Rows; i++ {
		for j, fidx := range top {
			xs.Set(i, j, x.At(i, fidx))
		}
	}
	shallow, err := fitMultiClassTree(xs, y, 3, seed+101)
	if err != nil {
		return nil, err
	}
	return &RuleBased{TopFeatures: top, trees: shallow}, nil
}

// accumulateImportance weights each split feature by 1/2^depth: splits
// near the root separate more of the corpus.
func accumulateImportance(t *model.Tree, imp []float64) {
	var rec func(i, depth int)
	rec = func(i, depth int) {
		n := t.Nodes[i]
		if n.IsLeaf() {
			return
		}
		if n.Feature < len(imp) {
			imp[n.Feature] += 1 / math.Pow(2, float64(depth))
		}
		rec(n.Left, depth+1)
		rec(n.Right, depth+1)
	}
	if len(t.Nodes) > 0 {
		rec(0, 0)
	}
}

// Name implements opt.RuntimeStrategy.
func (s *RuleBased) Name() string { return "ml-informed-rule-based" }

// Choose implements opt.RuntimeStrategy.
func (s *RuleBased) Choose(f *opt.Features) opt.Choice {
	x := make([]float64, len(s.TopFeatures))
	for j, idx := range s.TopFeatures {
		x[j] = f.V[idx]
	}
	return s.trees.predict(x)
}

// Rule renders the learned shallow trees as human-readable text.
func (s *RuleBased) Rule() string {
	names := make([]string, len(s.TopFeatures))
	for i, idx := range s.TopFeatures {
		names[i] = opt.FeatureNames[idx]
	}
	return fmt.Sprintf("rule over statistics %v", names)
}

// Classifier is the classification-based strategy: a one-vs-rest random
// forest over all 22 statistics (the paper found random forests most
// accurate among the classifiers it tried).
type Classifier struct {
	forests [numChoices]*model.TreeEnsemble
}

// TrainClassifier fits the random-forest classifier.
func TrainClassifier(examples []*Example, seed int64) (*Classifier, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("strategy: no training examples")
	}
	x, y := designMatrix(examples)
	out := &Classifier{}
	for c := opt.ChoiceNone; int(c) < numChoices; c++ {
		yc := make([]float64, len(y))
		for i, v := range y {
			if v == c {
				yc[i] = 1
			}
		}
		trees, err := train.FitForest(x, yc, train.ForestOptions{
			NTrees: 40,
			// Wider per-split feature sampling than sqrt(22): only a few of
			// the 22 statistics are informative for any given corpus.
			Tree: train.TreeOptions{MaxDepth: 8, MinSamplesLeaf: 2,
				MaxFeatures: 8, Task: model.Classification},
			Seed: seed + int64(c)*31,
		})
		if err != nil {
			return nil, err
		}
		out.forests[c] = &model.TreeEnsemble{
			Trees: trees, Algo: model.RandomForest, Task: model.Classification,
			Features: opt.NumFeatures,
		}
	}
	return out, nil
}

// Name implements opt.RuntimeStrategy.
func (s *Classifier) Name() string { return "classification-based" }

// Choose implements opt.RuntimeStrategy.
func (s *Classifier) Choose(f *opt.Features) opt.Choice {
	best, bestP := opt.ChoiceNone, math.Inf(-1)
	for c := opt.ChoiceNone; int(c) < numChoices; c++ {
		if p := s.forests[c].Score(f.V[:]); p > bestP {
			bestP, best = p, c
		}
	}
	return best
}

// Regressor is the regression-based strategy: a decision tree predicting
// log-runtime with the transformation as an extra feature; choosing means
// predicting all three runtimes and taking the minimum. Training data
// triples (one row per transformation), as in the paper.
type Regressor struct {
	tree model.Tree
}

// TrainRegressor fits the runtime regressor.
func TrainRegressor(examples []*Example, seed int64) (*Regressor, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("strategy: no training examples")
	}
	rows := len(examples) * numChoices
	x := train.NewMatrix(rows, opt.NumFeatures+1)
	y := make([]float64, rows)
	r := 0
	for _, e := range examples {
		for c := opt.ChoiceNone; int(c) < numChoices; c++ {
			copy(x.Row(r), e.F.V[:])
			x.Set(r, opt.NumFeatures, float64(c))
			y[r] = math.Log1p(e.Runtimes[c])
			r++
		}
	}
	t, err := train.FitTree(x, y, nil, train.TreeOptions{
		MaxDepth: 10, MinSamplesLeaf: 2, Task: model.Regression, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Regressor{tree: t}, nil
}

// Name implements opt.RuntimeStrategy.
func (s *Regressor) Name() string { return "regression-based" }

// Choose implements opt.RuntimeStrategy.
func (s *Regressor) Choose(f *opt.Features) opt.Choice {
	x := make([]float64, opt.NumFeatures+1)
	copy(x, f.V[:])
	best, bestRT := opt.ChoiceNone, math.Inf(1)
	for c := opt.ChoiceNone; int(c) < numChoices; c++ {
		x[opt.NumFeatures] = float64(c)
		if rt := s.tree.Eval(x); rt < bestRT {
			bestRT, best = rt, c
		}
	}
	return best
}
