package strategy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"raven/internal/opt"
)

// Builder constructs a strategy from training examples (one per strategy
// family), so the evaluation harness can cross-validate all of them.
type Builder struct {
	Name  string
	Train func(examples []*Example, seed int64) (opt.RuntimeStrategy, error)
}

// Builders returns the three paper strategies.
func Builders() []Builder {
	return []Builder{
		{Name: "ML-informed rule-based", Train: func(ex []*Example, seed int64) (opt.RuntimeStrategy, error) {
			return TrainRuleBased(ex, 3, seed)
		}},
		{Name: "Classification-based", Train: func(ex []*Example, seed int64) (opt.RuntimeStrategy, error) {
			return TrainClassifier(ex, seed)
		}},
		{Name: "Regression-based", Train: func(ex []*Example, seed int64) (opt.RuntimeStrategy, error) {
			return TrainRegressor(ex, seed)
		}},
	}
}

// FoldResult is one cross-validation run's outcome.
type FoldResult struct {
	Accuracy float64
	// SpeedupVsOptimal is Σ optimal runtime / Σ chosen runtime over the
	// test fold (1.0 means the strategy always picked the best).
	SpeedupVsOptimal float64
}

// EvalResult aggregates a strategy's cross-validation runs (Fig. 4).
type EvalResult struct {
	Strategy string
	Folds    []FoldResult
}

// MeanAccuracy returns the mean classification accuracy.
func (r *EvalResult) MeanAccuracy() float64 {
	s := 0.0
	for _, f := range r.Folds {
		s += f.Accuracy
	}
	return s / float64(len(r.Folds))
}

// SpeedupQuantiles returns min, p25, median, p75, max of the
// speedup-vs-optimal distribution (the paper's boxplot).
func (r *EvalResult) SpeedupQuantiles() [5]float64 {
	vals := make([]float64, len(r.Folds))
	for i, f := range r.Folds {
		vals[i] = f.SpeedupVsOptimal
	}
	sort.Float64s(vals)
	q := func(p float64) float64 {
		if len(vals) == 0 {
			return math.NaN()
		}
		idx := p * float64(len(vals)-1)
		lo := int(idx)
		hi := lo + 1
		if hi >= len(vals) {
			return vals[len(vals)-1]
		}
		frac := idx - float64(lo)
		return vals[lo]*(1-frac) + vals[hi]*frac
	}
	return [5]float64{q(0), q(0.25), q(0.5), q(0.75), q(1)}
}

// StratifiedKFold splits example indices into k folds preserving the class
// balance (the corpus is imbalanced: the paper reports 25/72/41).
func StratifiedKFold(examples []*Example, k int, seed int64) [][]int {
	byClass := map[opt.Choice][]int{}
	for i, e := range examples {
		byClass[e.Best()] = append(byClass[e.Best()], i)
	}
	rng := rand.New(rand.NewSource(seed))
	folds := make([][]int, k)
	for _, idxs := range byClass {
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		for i, idx := range idxs {
			folds[i%k] = append(folds[i%k], idx)
		}
	}
	return folds
}

// CrossValidate runs repeated stratified k-fold evaluation of one
// strategy family, mirroring §5.2's "stratified 5-fold cross validation
// ... repeated 40 times for a total of 200 runs".
func CrossValidate(b Builder, examples []*Example, k, repeats int, seed int64) (*EvalResult, error) {
	res := &EvalResult{Strategy: b.Name}
	for rep := 0; rep < repeats; rep++ {
		folds := StratifiedKFold(examples, k, seed+int64(rep)*977)
		for fi, test := range folds {
			var trainSet []*Example
			for fj, fold := range folds {
				if fj == fi {
					continue
				}
				for _, idx := range fold {
					trainSet = append(trainSet, examples[idx])
				}
			}
			if len(trainSet) == 0 || len(test) == 0 {
				continue
			}
			strat, err := b.Train(trainSet, seed+int64(rep*31+fi))
			if err != nil {
				return nil, fmt.Errorf("strategy: training %s: %w", b.Name, err)
			}
			correct, chosenTime, optimalTime := 0, 0.0, 0.0
			for _, idx := range test {
				e := examples[idx]
				choice := strat.Choose(e.F)
				if choice == e.Best() {
					correct++
				}
				chosenTime += e.Runtimes[choice]
				optimalTime += e.Runtimes[e.Best()]
			}
			fold := FoldResult{Accuracy: float64(correct) / float64(len(test))}
			if chosenTime > 0 {
				fold.SpeedupVsOptimal = optimalTime / chosenTime
			}
			res.Folds = append(res.Folds, fold)
		}
	}
	return res, nil
}

// ClassBalance counts examples per best choice (paper: 25 MLtoSQL, 72
// MLtoDNN, 41 none).
func ClassBalance(examples []*Example) map[string]int {
	out := map[string]int{}
	for _, e := range examples {
		out[e.Best().String()]++
	}
	return out
}
