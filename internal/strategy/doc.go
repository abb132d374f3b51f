// Package strategy implements the data-driven optimization strategies
// of §5.2: an ML-informed rule-based strategy (a shallow decision tree
// over the k most important statistics, turned into a rule), a
// classification-based strategy (a random forest picking the
// transformation directly), and a regression-based strategy (a decision
// tree predicting the runtime of each transformation). All three are
// trained on measured runtimes of a pipeline corpus and plug into the
// optimizer as opt.RuntimeStrategy implementations.
//
// CalibratedRule is the rule the engine ships: the §5.2 rule re-derived
// for this system's cost structure. It fixes each predict's runtime once,
// at optimization time, from the pipeline's features and the execution
// DOP.
package strategy
