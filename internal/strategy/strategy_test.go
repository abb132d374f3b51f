package strategy

import (
	"math"
	"math/rand"
	"testing"

	"raven/internal/opt"
)

// synthExamples builds a corpus with a learnable rule:
//   - many features (num_features > 100)            → DNN fastest
//   - small trees (num_features <= 100, depth <= 8) → SQL fastest
//   - otherwise                                     → none fastest
func synthExamples(n int, seed int64) []*Example {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Example, n)
	for i := 0; i < n; i++ {
		f := &opt.Features{}
		f.V[0] = float64(2 + rng.Intn(40))  // num_inputs
		f.V[1] = float64(5 + rng.Intn(300)) // num_features
		f.V[15] = float64(1 + rng.Intn(50)) // num_trees
		f.V[16] = float64(2 + rng.Intn(14)) // mean_tree_depth
		f.V[17] = f.V[16] + float64(rng.Intn(3))
		f.V[19] = f.V[15] * math.Pow(2, f.V[16]) / 2 // total nodes-ish
		e := &Example{Name: "s", F: f}
		noise := func() float64 { return 1 + 0.05*rng.NormFloat64() }
		switch {
		case f.V[1] > 100:
			e.Runtimes = [3]float64{3 * noise(), 5 * noise(), 1 * noise()}
		case f.V[16] <= 8:
			e.Runtimes = [3]float64{3 * noise(), 1 * noise(), 5 * noise()}
		default:
			e.Runtimes = [3]float64{1 * noise(), 4 * noise(), 3 * noise()}
		}
		out[i] = e
	}
	return out
}

func TestExampleBest(t *testing.T) {
	e := &Example{Runtimes: [3]float64{3, 1, 2}}
	if e.Best() != opt.ChoiceSQL {
		t.Fatalf("Best = %v", e.Best())
	}
	e = &Example{Runtimes: [3]float64{1, math.Inf(1), math.Inf(1)}}
	if e.Best() != opt.ChoiceNone {
		t.Fatalf("Best = %v", e.Best())
	}
}

func accuracyOn(s opt.RuntimeStrategy, examples []*Example) float64 {
	ok := 0
	for _, e := range examples {
		if s.Choose(e.F) == e.Best() {
			ok++
		}
	}
	return float64(ok) / float64(len(examples))
}

func TestRuleBasedLearnsRule(t *testing.T) {
	trainSet := synthExamples(300, 1)
	testSet := synthExamples(120, 2)
	s, err := TrainRuleBased(trainSet, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOn(s, testSet); acc < 0.8 {
		t.Fatalf("rule-based accuracy = %v", acc)
	}
	if len(s.TopFeatures) == 0 || len(s.TopFeatures) > 3 {
		t.Fatalf("top features = %v", s.TopFeatures)
	}
	// The generating rule uses num_features(1) and mean_tree_depth(16):
	// at least one of them must be selected.
	found := false
	for _, idx := range s.TopFeatures {
		if idx == 1 || idx == 16 {
			found = true
		}
	}
	if !found {
		t.Fatalf("top features missed the informative statistics: %v (%s)", s.TopFeatures, s.Rule())
	}
	if s.Name() != "ml-informed-rule-based" {
		t.Fatal("name wrong")
	}
}

func TestClassifierLearns(t *testing.T) {
	trainSet := synthExamples(300, 3)
	testSet := synthExamples(120, 4)
	s, err := TrainClassifier(trainSet, 7)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOn(s, testSet); acc < 0.85 {
		t.Fatalf("classifier accuracy = %v", acc)
	}
	if s.Name() != "classification-based" {
		t.Fatal("name wrong")
	}
}

func TestRegressorLearns(t *testing.T) {
	trainSet := synthExamples(300, 5)
	testSet := synthExamples(120, 6)
	s, err := TrainRegressor(trainSet, 7)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOn(s, testSet); acc < 0.8 {
		t.Fatalf("regressor accuracy = %v", acc)
	}
	if s.Name() != "regression-based" {
		t.Fatal("name wrong")
	}
}

func TestTrainersRejectEmpty(t *testing.T) {
	if _, err := TrainRuleBased(nil, 3, 1); err == nil {
		t.Fatal("rule-based should reject empty corpus")
	}
	if _, err := TrainClassifier(nil, 1); err == nil {
		t.Fatal("classifier should reject empty corpus")
	}
	if _, err := TrainRegressor(nil, 1); err == nil {
		t.Fatal("regressor should reject empty corpus")
	}
}

func TestStratifiedKFold(t *testing.T) {
	examples := synthExamples(100, 9)
	folds := StratifiedKFold(examples, 5, 1)
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]bool{}
	total := 0
	for _, f := range folds {
		total += len(f)
		for _, idx := range f {
			if seen[idx] {
				t.Fatal("index in two folds")
			}
			seen[idx] = true
		}
	}
	if total != 100 {
		t.Fatalf("total = %d", total)
	}
	// Stratification: each fold should contain more than one class.
	for fi, f := range folds {
		classes := map[opt.Choice]bool{}
		for _, idx := range f {
			classes[examples[idx].Best()] = true
		}
		if len(classes) < 2 {
			t.Fatalf("fold %d has %d classes", fi, len(classes))
		}
	}
}

func TestCrossValidate(t *testing.T) {
	examples := synthExamples(120, 11)
	for _, b := range Builders() {
		res, err := CrossValidate(b, examples, 5, 2, 17)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(res.Folds) != 10 {
			t.Fatalf("%s: folds = %d, want 10", b.Name, len(res.Folds))
		}
		if acc := res.MeanAccuracy(); acc < 0.6 {
			t.Fatalf("%s: mean accuracy = %v", b.Name, acc)
		}
		q := res.SpeedupQuantiles()
		if q[2] < 0.7 || q[2] > 1.0001 {
			t.Fatalf("%s: median speedup-vs-optimal = %v", b.Name, q[2])
		}
		for i := 1; i < len(q); i++ {
			if q[i] < q[i-1] {
				t.Fatalf("%s: quantiles not monotone: %v", b.Name, q)
			}
		}
	}
}

func TestClassBalance(t *testing.T) {
	examples := synthExamples(200, 13)
	bal := ClassBalance(examples)
	total := 0
	for _, n := range bal {
		total += n
	}
	if total != 200 {
		t.Fatalf("balance total = %d (%v)", total, bal)
	}
	if len(bal) < 2 {
		t.Fatalf("degenerate balance: %v", bal)
	}
}

func TestSpeedupNeverExceedsOne(t *testing.T) {
	// The speedup-vs-optimal metric is bounded by 1 by construction.
	examples := synthExamples(80, 21)
	res, err := CrossValidate(Builders()[1], examples, 4, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Folds {
		if f.SpeedupVsOptimal > 1.0000001 {
			t.Fatalf("speedup %v > 1", f.SpeedupVsOptimal)
		}
	}
}
