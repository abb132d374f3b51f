// Strategy tuning: reproduce §5.2's workflow — generate an OpenML-like
// corpus, measure the three transformation options per pipeline, train the
// three data-driven strategies, and cross-validate them (the paper's
// Fig. 4). Finally show the learned rule picking runtimes for new models.
//
// Run it (no input files needed; measuring the 60-pipeline corpus takes
// tens of seconds):
//
//	go run ./examples/strategy_tuning
//
// Expected output (accuracies vary a little with measured runtimes):
//
//	class balance (best option per model): map[MLtoDNN:6 MLtoSQL:28 none:26]
//	ML-informed rule-based     accuracy=0.75  speedup-vs-optimal min/median/max = ...
//	Classification-based       accuracy=0.77  ...
//	Regression-based           accuracy=0.71  ...
//
// followed by the statistics the learned rule uses and its decisions on
// sample pipelines.
package main

import (
	"fmt"
	"log"

	"raven/internal/openml"
	"raven/internal/opt"
	"raven/internal/strategy"
)

func main() {
	fmt.Println("generating corpus and measuring MLtoSQL/MLtoDNN/none runtimes...")
	cases, err := openml.Generate(openml.CorpusOptions{N: 60, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	examples, err := openml.MeasureAll(cases)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("class balance (best option per model): %v\n\n", strategy.ClassBalance(examples))

	for _, b := range strategy.Builders() {
		res, err := strategy.CrossValidate(b, examples, 5, 8, 3)
		if err != nil {
			log.Fatal(err)
		}
		q := res.SpeedupQuantiles()
		fmt.Printf("%-26s accuracy=%.2f  speedup-vs-optimal min/median/max = %.2f/%.2f/%.2f\n",
			b.Name, res.MeanAccuracy(), q[0], q[2], q[4])
	}

	// Train the rule-based strategy on everything and inspect its picks.
	rule, err := strategy.TrainRuleBased(examples, 3, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlearned %s\n", rule.Rule())
	fmt.Println("\nsample decisions:")
	for _, c := range cases[:8] {
		f := opt.ExtractFeatures(c.Pipeline)
		fmt.Printf("  %-12s %-3s features=%-4.0f trees=%-3.0f depth=%-4.1f -> %s\n",
			c.Name, c.Spec.Kind, f.Get("num_features"), f.Get("num_trees"),
			f.Get("mean_tree_depth"), rule.Choose(f))
	}
}
