package hummingbird

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"raven/internal/data"
	"raven/internal/mlruntime"
	"raven/internal/model"
	"raven/internal/testfix"
	"raven/internal/train"
)

func randomCovidBatch(n int, seed int64) *data.Table {
	rng := rand.New(rand.NewSource(seed))
	age := make([]float64, n)
	bpm := make([]float64, n)
	asthma := make([]string, n)
	hyper := make([]string, n)
	yn := []string{"no", "yes"}
	for i := 0; i < n; i++ {
		age[i] = 20 + 70*rng.Float64()
		bpm[i] = 50 + 100*rng.Float64()
		asthma[i] = yn[rng.Intn(2)]
		hyper[i] = yn[rng.Intn(2)]
	}
	return data.MustNewTable("d",
		data.NewFloat("age", age),
		data.NewFloat("bpm", bpm),
		data.NewString("asthma", asthma),
		data.NewString("hypertension", hyper),
	)
}

// runBoth executes the pipeline on the ML runtime and on a compiled
// program, returning both score vectors.
func runBoth(t *testing.T, p *model.Pipeline, batch *data.Table) (mlScores, dnnScores []float64) {
	t.Helper()
	sess, err := mlruntime.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.RunTable(batch)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := prog.Run(batch)
	if err != nil {
		t.Fatal(err)
	}
	return out["score"].Block.Data, res.Score
}

func TestCompileCovidTTParity(t *testing.T) {
	p := testfix.CovidPipeline()
	batch := randomCovidBatch(300, 2)
	ml, dnn := runBoth(t, p, batch)
	for i := range ml {
		if math.Abs(ml[i]-dnn[i]) > 1e-5 {
			t.Fatalf("row %d: ML=%v DNN=%v", i, ml[i], dnn[i])
		}
	}
}

func trainedPipeline(t *testing.T, kind train.ModelKind, nEst, depth int) (*model.Pipeline, *data.Table) {
	t.Helper()
	batch := randomCovidBatch(600, 7)
	// Plant a label.
	label := make([]float64, batch.NumRows())
	for i := range label {
		z := batch.Col("age").F64[i]/50 - 1
		if batch.Col("asthma").Str[i] == "yes" {
			z += 0.8
		}
		if z > 0.2 {
			label[i] = 1
		}
	}
	tb := batch.Clone()
	if err := tb.AddColumn(data.NewFloat("label", label)); err != nil {
		t.Fatal(err)
	}
	p, err := train.FitPipeline(tb, train.Spec{
		Name: "m", Numeric: []string{"age", "bpm"},
		Categorical: []string{"asthma", "hypertension"},
		Label:       "label", Kind: kind, MaxDepth: depth, NEstimators: nEst,
		LearningRate: 0.2, Alpha: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, batch
}

func TestTrainedModelsParityAllKinds(t *testing.T) {
	cases := []struct {
		kind train.ModelKind
		tol  float64
	}{
		{train.KindLogistic, 1e-5},
		{train.KindDecisionTree, 1e-5},
		{train.KindRandomForest, 1e-5},
		{train.KindGradientBoosting, 1e-4},
	}
	for _, c := range cases {
		p, batch := trainedPipeline(t, c.kind, 8, 5)
		ml, dnn := runBoth(t, p, batch)
		for i := range ml {
			if math.Abs(ml[i]-dnn[i]) > c.tol {
				t.Fatalf("%v row %d: ML=%v DNN=%v", c.kind, i, ml[i], dnn[i])
			}
		}
	}
}

func TestCompileErrors(t *testing.T) {
	// No model operator.
	noModel := &model.Pipeline{
		Name:   "nm",
		Inputs: []model.Input{{Name: "x"}},
		Ops: []model.Operator{
			&model.Concat{Name: "c", In: []string{"x"}, Out: "F"},
		},
		Outputs: []string{"F"},
	}
	if _, err := Compile(noModel); err == nil {
		t.Fatal("expected no-model error")
	}
	// Normalizer has no tensor translation.
	norm := &model.Pipeline{
		Name:   "norm",
		Inputs: []model.Input{{Name: "x"}},
		Ops: []model.Operator{
			&model.Concat{Name: "c", In: []string{"x"}, Out: "v"},
			&model.Normalizer{Name: "n", In: "v", Out: "F", Norm: "l2"},
			&model.LinearModel{Name: "m", In: "F", OutScore: "score",
				Coef: []float64{1}, Task: model.Regression},
		},
		Outputs: []string{"score"},
	}
	if _, err := Compile(norm); err == nil {
		t.Fatal("expected normalizer translation error")
	}
}

func TestAddKernel(t *testing.T) {
	log := &CostLog{}
	log.AddKernel()
	log.AddKernel()
	if log.Kernels != 2 {
		t.Fatalf("Kernels = %d", log.Kernels)
	}
}

func TestConstantFeatureFoldsThroughScaler(t *testing.T) {
	// Pipeline: Constant + scaler → linear; checks constVal composition.
	p := &model.Pipeline{
		Name:   "k",
		Inputs: []model.Input{{Name: "x"}},
		Ops: []model.Operator{
			&model.Constant{Name: "c", Out: "kv", Values: []float64{4}},
			&model.Concat{Name: "cc", In: []string{"x", "kv"}, Out: "v"},
			&model.StandardScaler{Name: "s", In: "v", Out: "F",
				Offset: []float64{1, 2}, Scale: []float64{2, 3}},
			&model.LinearModel{Name: "m", In: "F", OutScore: "score",
				Coef: []float64{1, 1}, Intercept: 0, Task: model.Regression},
		},
		Outputs: []string{"score"},
	}
	batch := data.MustNewTable("d", data.NewFloat("x", []float64{5}))
	ml, dnn := runBoth(t, p, batch)
	// (5-1)*2 + (4-2)*3 = 8 + 6 = 14.
	if math.Abs(ml[0]-14) > 1e-9 || math.Abs(dnn[0]-14) > 1e-4 {
		t.Fatalf("ml=%v dnn=%v want 14", ml[0], dnn[0])
	}
}

func TestLabelEncoderFeature(t *testing.T) {
	p := &model.Pipeline{
		Name:   "le",
		Inputs: []model.Input{{Name: "k", Categorical: true}},
		Ops: []model.Operator{
			&model.LabelEncoder{Name: "e", In: "k", Out: "F", Categories: []string{"a", "b", "c"}},
			&model.LinearModel{Name: "m", In: "F", OutScore: "score",
				Coef: []float64{10}, Task: model.Regression},
		},
		Outputs: []string{"score"},
	}
	batch := data.MustNewTable("d", data.NewString("k", []string{"c", "zzz"}))
	ml, dnn := runBoth(t, p, batch)
	if ml[0] != 20 || dnn[0] != 20 {
		t.Fatalf("label encoding: ml=%v dnn=%v", ml[0], dnn[0])
	}
	if ml[1] != -10 || dnn[1] != -10 {
		t.Fatalf("unknown label: ml=%v dnn=%v", ml[1], dnn[1])
	}
}

// withNonFinite replaces the age or bpm of every other row of a covid
// batch with NaN, +Inf or −Inf, as ParseFloat accepts them from CSV.
func withNonFinite(batch *data.Table, seed int64) *data.Table {
	rng := rand.New(rand.NewSource(seed))
	out := batch.Clone()
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for r := 0; r < out.NumRows(); r += 2 {
		col := []string{"age", "bpm"}[rng.Intn(2)]
		out.Col(col).F64[r] = bad[rng.Intn(len(bad))]
	}
	return out
}

// randomEnsemble builds a random ensemble over the four numeric inputs
// x0..x3: 1–60 trees of depth 1–7 whose nodes split with probability 3/4,
// so sizes range from a single stump to a few thousand nodes. Thresholds
// lie on gridValue's grid and leaf values are float32-exact, so float32
// and float64 comparisons take the same branch.
func randomEnsemble(rng *rand.Rand) *model.Pipeline {
	algos := []model.Algo{model.DecisionTree, model.RandomForest, model.GradientBoosting}
	tasks := []model.Task{model.Regression, model.Classification}
	ens := &model.TreeEnsemble{Name: "m", In: "F", OutScore: "score",
		Trees: make([]model.Tree, 1+rng.Intn(60)), Task: tasks[rng.Intn(2)],
		Algo: algos[rng.Intn(3)], BaseScore: float64(float32(rng.NormFloat64())), Features: 4}
	if ens.Algo == model.DecisionTree {
		ens.Trees = ens.Trees[:1]
	}
	depth := 1 + rng.Intn(7)
	var grow func(nodes *[]model.TreeNode, d int) int
	grow = func(nodes *[]model.TreeNode, d int) int {
		id := len(*nodes)
		if d == 0 || (id > 0 && rng.Intn(4) == 0) {
			*nodes = append(*nodes, model.TreeNode{Feature: -1, Value: float64(float32(rng.Float64()*2 - 1))})
			return id
		}
		*nodes = append(*nodes, model.TreeNode{Feature: rng.Intn(4), Threshold: gridValue(rng)})
		l := grow(nodes, d-1)
		r := grow(nodes, d-1)
		(*nodes)[id].Left, (*nodes)[id].Right = l, r
		return id
	}
	for i := range ens.Trees {
		var nodes []model.TreeNode
		grow(&nodes, depth)
		ens.Trees[i] = model.Tree{Nodes: nodes}
	}
	return &model.Pipeline{
		Name:   "rand",
		Inputs: []model.Input{{Name: "x0"}, {Name: "x1"}, {Name: "x2"}, {Name: "x3"}},
		Ops: []model.Operator{
			&model.Concat{Name: "c", In: []string{"x0", "x1", "x2", "x3"}, Out: "F"},
			ens,
		},
		Outputs: []string{"score"},
	}
}

// gridValue draws from the multiples of 1/4 in [−2, 2]: exact in float32,
// and coarse enough that features often equal a threshold.
func gridValue(rng *rand.Rand) float64 { return float64(rng.Intn(17)-8) / 4 }

// randomNumericBatch draws x0..x3 from gridValue's grid; every fifth value
// is NaN, +Inf or −Inf.
func randomNumericBatch(n int, rng *rand.Rand) *data.Table {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	cols := make([]*data.Column, 4)
	for j := range cols {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = gridValue(rng)
			if rng.Intn(5) == 0 {
				vals[i] = bad[rng.Intn(len(bad))]
			}
		}
		cols[j] = data.NewFloat(fmt.Sprintf("x%d", j), vals)
	}
	return data.MustNewTable("d", cols...)
}

// agree reports whether the compiled program scores batch like the ML
// runtime, within float32 rounding of the summed leaf values.
func agree(t *testing.T, p *model.Pipeline, batch *data.Table, label string) bool {
	t.Helper()
	sess, err := mlruntime.NewSession(p)
	if err != nil {
		t.Error(err)
		return false
	}
	ml, err := sess.RunTable(batch)
	if err != nil {
		t.Error(err)
		return false
	}
	prog, err := Compile(p)
	if err != nil {
		t.Error(err)
		return false
	}
	got, _, err := prog.Run(batch)
	if err != nil {
		t.Error(err)
		return false
	}
	for i, want := range ml["score"].Block.Data {
		if math.Abs(got.Score[i]-want) > 1e-5*math.Max(1, math.Abs(want)) {
			t.Logf("%s row %d: runtime=%v program=%v", label, i, want, got.Score[i])
			return false
		}
	}
	return true
}

// Property: the compiled program agrees with the ML runtime on the covid
// pipeline and on random ensembles, small (at most 512 nodes) and large
// alike, including on rows whose features are NaN or ±Inf: a non-finite
// feature may only steer the nodes that test it.
func TestQuickStrategiesAgree(t *testing.T) {
	covid := testfix.CovidPipeline()
	nonFinite := func(seed int64) bool {
		return agree(t, covid, withNonFinite(randomCovidBatch(64, seed), seed), fmt.Sprintf("covid seed %d", seed))
	}
	if err := quick.Check(nonFinite, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	small, large := 0, 0
	random := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomEnsemble(rng)
		nodes := 0
		for _, tr := range p.FinalModel().(*model.TreeEnsemble).Trees {
			nodes += len(tr.Nodes)
		}
		if nodes <= 512 {
			small++
		} else {
			large++
		}
		return agree(t, p, randomNumericBatch(1+rng.Intn(100), rng), fmt.Sprintf("ensemble seed %d", seed))
	}
	if err := quick.Check(random, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	} else if small == 0 || large == 0 {
		t.Errorf("generated %d ensembles of at most 512 nodes and %d larger; want both", small, large)
	}
}

func TestLabelsMatchRuntime(t *testing.T) {
	p, batch := trainedPipeline(t, train.KindGradientBoosting, 10, 4)
	sess, err := mlruntime.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.RunTable(batch)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := prog.Run(batch)
	if err != nil {
		t.Fatal(err)
	}
	mismatch := 0
	for i := range res.Label {
		if res.Label[i] != out["label"].Block.Data[i] {
			mismatch++
		}
	}
	// float32 rounding may flip scores sitting exactly at the boundary;
	// the paper reports <0.8% for MLtoDNN.
	if frac := float64(mismatch) / float64(len(res.Label)); frac > 0.008 {
		t.Fatalf("label mismatch fraction %v", frac)
	}
}
