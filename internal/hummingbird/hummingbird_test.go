package hummingbird

import (
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
func runBoth(t *testing.T, p *model.Pipeline, batch *data.Table, s Strategy) (mlScores, dnnScores []float64) {
	t.Helper()
	sess, err := mlruntime.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.RunTable(batch)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(p, s)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := prog.Run(batch)
	if err != nil {
		t.Fatal(err)
	}
	return out["score"].Block.Data, res.Score
}

func TestCompileCovidGEMMParity(t *testing.T) {
	p := testfix.CovidPipeline()
	batch := randomCovidBatch(300, 1)
	ml, dnn := runBoth(t, p, batch, StrategyGEMM)
	for i := range ml {
		if math.Abs(ml[i]-dnn[i]) > 1e-5 {
			t.Fatalf("row %d: ML=%v DNN=%v", i, ml[i], dnn[i])
		}
	}
}

func TestCompileCovidTTParity(t *testing.T) {
	p := testfix.CovidPipeline()
	batch := randomCovidBatch(300, 2)
	ml, dnn := runBoth(t, p, batch, StrategyTreeTraversal)
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
		ml, dnn := runBoth(t, p, batch, StrategyAuto)
		for i := range ml {
			if math.Abs(ml[i]-dnn[i]) > c.tol {
				t.Fatalf("%v row %d: ML=%v DNN=%v", c.kind, i, ml[i], dnn[i])
			}
		}
	}
}

func TestStrategyAutoSelection(t *testing.T) {
	small, _ := trainedPipeline(t, train.KindDecisionTree, 1, 4)
	prog, err := Compile(small, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Strategy != StrategyGEMM {
		t.Fatalf("small tree should pick GEMM, got %v", prog.Strategy)
	}
	// A deep synthetic ensemble must exceed the GEMM size limit.
	big := &model.Pipeline{
		Name:   "big",
		Inputs: []model.Input{{Name: "x"}},
		Ops: []model.Operator{
			&model.Concat{Name: "c", In: []string{"x"}, Out: "F"},
			&model.TreeEnsemble{Name: "m", In: "F", OutScore: "score",
				Trees: manyFullTrees(200, 6), Task: model.Regression,
				Algo: model.GradientBoosting, Features: 1},
		},
		Outputs: []string{"score"},
	}
	prog2, err := Compile(big, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if prog2.Strategy != StrategyTreeTraversal {
		t.Fatalf("big ensemble should pick TreeTraversal, got %v", prog2.Strategy)
	}
}

// manyFullTrees builds count perfect trees of the given depth splitting on
// feature 0 with distinct thresholds.
func manyFullTrees(count, depth int) []model.Tree {
	var build func(nodes *[]model.TreeNode, d int, lo, hi float64) int
	build = func(nodes *[]model.TreeNode, d int, lo, hi float64) int {
		id := len(*nodes)
		if d == 0 {
			*nodes = append(*nodes, model.TreeNode{Feature: -1, Value: lo})
			return id
		}
		mid := (lo + hi) / 2
		*nodes = append(*nodes, model.TreeNode{Feature: 0, Threshold: mid})
		l := build(nodes, d-1, lo, mid)
		r := build(nodes, d-1, mid, hi)
		(*nodes)[id].Left = l
		(*nodes)[id].Right = r
		return id
	}
	trees := make([]model.Tree, count)
	for i := range trees {
		var nodes []model.TreeNode
		build(&nodes, depth, float64(i), float64(i+1))
		trees[i] = model.Tree{Nodes: nodes}
	}
	return trees
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
	if _, err := Compile(noModel, StrategyAuto); err == nil {
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
	if _, err := Compile(norm, StrategyAuto); err == nil {
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
	ml, dnn := runBoth(t, p, batch, StrategyAuto)
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
	ml, dnn := runBoth(t, p, batch, StrategyAuto)
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

// Property: GEMM and TreeTraversal strategies agree with each other on
// random batches, and with the ML runtime on rows whose features include
// NaN or ±Inf: a non-finite feature may only steer the nodes that test it.
func TestQuickStrategiesAgree(t *testing.T) {
	p := testfix.CovidPipeline()
	gemmProg, err := Compile(p, StrategyGEMM)
	if err != nil {
		t.Fatal(err)
	}
	ttProg, err := Compile(p, StrategyTreeTraversal)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := mlruntime.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		batch := randomCovidBatch(23, seed)
		g, _, err := gemmProg.Run(batch)
		if err != nil {
			return false
		}
		tt, _, err := ttProg.Run(batch)
		if err != nil {
			return false
		}
		for i := range g.Score {
			if math.Abs(g.Score[i]-tt.Score[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	nonFinite := func(seed int64) bool {
		batch := withNonFinite(randomCovidBatch(64, seed), seed)
		ml, err := sess.RunTable(batch)
		if err != nil {
			return false
		}
		g, _, err := gemmProg.Run(batch)
		if err != nil {
			return false
		}
		tt, _, err := ttProg.Run(batch)
		if err != nil {
			return false
		}
		for i, want := range ml["score"].Block.Data {
			if math.Abs(g.Score[i]-want) > 1e-5 || math.Abs(tt.Score[i]-want) > 1e-5 {
				t.Logf("seed %d row %d: runtime=%v gemm=%v tt=%v", seed, i, want, g.Score[i], tt.Score[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(nonFinite, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
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
	prog, err := Compile(p, StrategyAuto)
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
