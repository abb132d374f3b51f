// Package openml generates a corpus of trained pipelines shaped like the
// OpenML CC-18 study of §2.1 (Fig. 1): varied input counts, categorical
// fractions and cardinalities, and the four model families with a heavy
// tree-based majority. The corpus drives the Fig. 1 statistics, the
// strategy training set (§5.2) and the Fig. 4 evaluation. Hyperparameter
// tails are scaled down from the paper's extremes (thousands of trees) to
// fit a single-core host (the substitution policy heading
// internal/experiments/costmodel.go).
package openml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"raven/internal/data"
	"raven/internal/hummingbird"
	"raven/internal/mlruntime"
	"raven/internal/model"
	"raven/internal/opt"
	"raven/internal/strategy"
	"raven/internal/train"
)

// Case is one generated dataset + trained pipeline.
type Case struct {
	Name     string
	Table    *data.Table // evaluation rows (inference benchmark input)
	Pipeline *model.Pipeline
	Spec     train.Spec
}

// CorpusOptions configures corpus generation.
type CorpusOptions struct {
	// N is the number of pipelines (the paper studies 508; default 100).
	N int
	// TrainRows / EvalRows size the per-case data (defaults 300 / 1200).
	TrainRows int
	EvalRows  int
	Seed      int64
}

func (o CorpusOptions) withDefaults() CorpusOptions {
	if o.N == 0 {
		o.N = 100
	}
	if o.TrainRows == 0 {
		o.TrainRows = 300
	}
	if o.EvalRows == 0 {
		o.EvalRows = 1200
	}
	return o
}

// Generate builds the corpus deterministically from the seed.
func Generate(o CorpusOptions) ([]*Case, error) {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))
	cases := make([]*Case, 0, o.N)
	for i := 0; i < o.N; i++ {
		c, err := generateCase(fmt.Sprintf("openml_%03d", i), o, rng)
		if err != nil {
			return nil, err
		}
		cases = append(cases, c)
	}
	return cases, nil
}

func generateCase(name string, o CorpusOptions, rng *rand.Rand) (*Case, error) {
	// Input counts: lognormal around the paper's median of ~21.
	nInputs := int(math.Exp(rng.NormFloat64()*0.7 + math.Log(16)))
	if nInputs < 3 {
		nInputs = 3
	}
	if nInputs > 60 {
		nInputs = 60
	}
	catFrac := rng.Float64() * 0.7
	nCat := int(float64(nInputs) * catFrac)
	nNum := nInputs - nCat
	if nNum < 1 {
		nNum, nCat = 1, nInputs-1
	}
	cards := make([]int, nCat)
	for i := range cards {
		// Mostly small cardinalities with an occasional wide one, giving
		// the heavy featurization tail of Fig. 1.
		if rng.Float64() < 0.15 {
			cards[i] = 10 + rng.Intn(30)
		} else {
			cards[i] = 2 + rng.Intn(6)
		}
	}
	spec := train.Spec{Name: name, Label: "label", Seed: rng.Int63()}
	for i := 0; i < nNum; i++ {
		spec.Numeric = append(spec.Numeric, fmt.Sprintf("n%d", i))
	}
	for i := 0; i < nCat; i++ {
		spec.Categorical = append(spec.Categorical, fmt.Sprintf("c%d", i))
	}
	switch r := rng.Float64(); {
	case r < 0.12: // the paper: ~88% of models are tree-based
		spec.Kind = train.KindLogistic
		spec.Alpha = math.Exp(rng.NormFloat64()*1.5 - 1)
	case r < 0.42:
		spec.Kind = train.KindDecisionTree
		spec.MaxDepth = 3 + rng.Intn(14) // paper median depth 11
	case r < 0.70:
		spec.Kind = train.KindRandomForest
		spec.NEstimators = 3 + rng.Intn(12)
		spec.MaxDepth = 3 + rng.Intn(8)
	default:
		spec.Kind = train.KindGradientBoosting
		spec.NEstimators = 5 + rng.Intn(56)
		spec.MaxDepth = 2 + rng.Intn(6)
		spec.LearningRate = 0.05 + rng.Float64()*0.4
	}
	total := o.TrainRows + o.EvalRows
	tb := synthTable(name, nNum, cards, total, rng)
	trainTab := tb.Slice(0, o.TrainRows)
	evalTab := tb.Slice(o.TrainRows, total)
	pipe, err := train.FitPipeline(trainTab, spec)
	if err != nil {
		return nil, fmt.Errorf("openml: %s: %w", name, err)
	}
	return &Case{Name: name, Table: evalTab, Pipeline: pipe, Spec: spec}, nil
}

// synthTable generates a table with planted structure: a random subset of
// inputs is informative, the rest is noise — producing the realistic
// unused-feature rates of Fig. 1 (~46% on average in the paper).
func synthTable(name string, nNum int, cards []int, rows int, rng *rand.Rand) *data.Table {
	numCols := make([][]float64, nNum)
	for i := range numCols {
		numCols[i] = make([]float64, rows)
	}
	catCols := make([][]string, len(cards))
	for i := range catCols {
		catCols[i] = make([]string, rows)
	}
	// Choose informative inputs.
	numW := make([]float64, nNum)
	for i := range numW {
		if rng.Float64() < 0.4 {
			numW[i] = rng.NormFloat64() * 2
		}
	}
	catW := make([]float64, len(cards))
	for i := range catW {
		if rng.Float64() < 0.4 {
			catW[i] = rng.NormFloat64() * 2
		}
	}
	label := make([]float64, rows)
	for r := 0; r < rows; r++ {
		z := 0.0
		for i := range numCols {
			v := rng.NormFloat64()
			numCols[i][r] = v
			z += numW[i] * v
		}
		for i, card := range cards {
			k := rng.Intn(card)
			catCols[i][r] = fmt.Sprintf("v%d", k)
			z += catW[i] * float64(k%2)
		}
		if z+rng.NormFloat64()*0.5 > 0 {
			label[r] = 1
		}
	}
	cols := make([]*data.Column, 0, nNum+len(cards)+1)
	for i, v := range numCols {
		cols = append(cols, data.NewFloat(fmt.Sprintf("n%d", i), v))
	}
	for i, v := range catCols {
		cols = append(cols, data.NewString(fmt.Sprintf("c%d", i), v))
	}
	cols = append(cols, data.NewFloat("label", label))
	return data.MustNewTable(name, cols...)
}

// Measure times the three transformation options for one case over its
// evaluation rows and returns a strategy training example. All options
// compute for real on the host CPU. Each time is the fastest of
// measureRuns runs: the labels the strategies learn are which option is
// fastest, and a single wall-clock sample on a shared host flips them.
func Measure(c *Case) (*strategy.Example, error) {
	ex := &strategy.Example{Name: c.Name, F: opt.ExtractFeatures(c.Pipeline)}
	// Identity binding: eval table columns carry the input names.
	inputMap := map[string]string{}
	for _, in := range c.Pipeline.Inputs {
		inputMap[in.Name] = in.Name
	}
	outputMap := map[string]string{"score": "score"}

	// Option 1: ML runtime.
	sess, err := mlruntime.NewSession(c.Pipeline)
	if err != nil {
		return nil, err
	}
	if ex.Runtimes[opt.ChoiceNone], err = fastest(func() error {
		_, err := sess.RunTable(c.Table)
		return err
	}); err != nil {
		return nil, err
	}

	// Option 2: MLtoSQL (expression evaluation on the data engine).
	exprs, err := opt.CompileToSQL(c.Pipeline, inputMap, outputMap)
	if err != nil {
		ex.Runtimes[opt.ChoiceSQL] = math.Inf(1)
	} else if ex.Runtimes[opt.ChoiceSQL], err = fastest(func() error {
		for _, ne := range exprs {
			if _, err := ne.E.Eval(c.Table); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Option 3: MLtoDNN (tensor program on CPU).
	prog, err := hummingbird.Compile(c.Pipeline)
	if err != nil {
		ex.Runtimes[opt.ChoiceDNN] = math.Inf(1)
	} else if ex.Runtimes[opt.ChoiceDNN], err = fastest(func() error {
		_, _, err := prog.Run(c.Table)
		return err
	}); err != nil {
		return nil, err
	}
	return ex, nil
}

// measureRuns is how many times Measure runs each option.
const measureRuns = 3

// fastest runs f measureRuns times and returns its fastest wall time in
// seconds.
func fastest(f func() error) (float64, error) {
	best := math.Inf(1)
	for range measureRuns {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		best = min(best, time.Since(t0).Seconds())
	}
	return best, nil
}

// MeasureAll measures every case (the strategy training set).
func MeasureAll(cases []*Case) ([]*strategy.Example, error) {
	out := make([]*strategy.Example, 0, len(cases))
	for _, c := range cases {
		ex, err := Measure(c)
		if err != nil {
			return nil, fmt.Errorf("openml: measuring %s: %w", c.Name, err)
		}
		out = append(out, ex)
	}
	return out, nil
}

// Stat is one Fig. 1 boxplot row.
type Stat struct {
	Name                    string
	Min, P25, Med, P75, Max float64
}

// Summary computes the Fig. 1 statistics over the corpus: #operators,
// #inputs, #features, %unused features, #tree nodes, #trees, avg depth.
func Summary(cases []*Case) []Stat {
	metrics := []struct {
		name string
		get  func(*Case) (float64, bool)
	}{
		{"# operators", func(c *Case) (float64, bool) {
			return float64(c.Pipeline.NumOperators()), true
		}},
		{"# inputs", func(c *Case) (float64, bool) {
			return float64(len(c.Pipeline.Inputs)), true
		}},
		{"# features", func(c *Case) (float64, bool) {
			return float64(c.Pipeline.NumFeatures()), true
		}},
		{"% unused features", func(c *Case) (float64, bool) {
			f := opt.ExtractFeatures(c.Pipeline)
			return 100 * f.Get("frac_unused_features"), true
		}},
		{"# tree nodes", func(c *Case) (float64, bool) {
			e, ok := c.Pipeline.FinalModel().(*model.TreeEnsemble)
			if !ok {
				return 0, false
			}
			return float64(e.TotalNodes()), true
		}},
		{"# trees", func(c *Case) (float64, bool) {
			e, ok := c.Pipeline.FinalModel().(*model.TreeEnsemble)
			if !ok {
				return 0, false
			}
			return float64(len(e.Trees)), true
		}},
		{"avg tree depth", func(c *Case) (float64, bool) {
			e, ok := c.Pipeline.FinalModel().(*model.TreeEnsemble)
			if !ok {
				return 0, false
			}
			return e.MeanDepth(), true
		}},
	}
	out := make([]Stat, 0, len(metrics))
	for _, m := range metrics {
		var vals []float64
		for _, c := range cases {
			if v, ok := m.get(c); ok {
				vals = append(vals, v)
			}
		}
		sort.Float64s(vals)
		q := func(p float64) float64 {
			if len(vals) == 0 {
				return math.NaN()
			}
			idx := int(p * float64(len(vals)-1))
			return vals[idx]
		}
		out = append(out, Stat{
			Name: m.name, Min: q(0), P25: q(0.25), Med: q(0.5), P75: q(0.75), Max: q(1),
		})
	}
	return out
}
