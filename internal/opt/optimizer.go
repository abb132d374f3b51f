package opt

import (
	"fmt"
	"strings"

	"raven/internal/hummingbird"
	"raven/internal/ir"
	"raven/internal/relational"
)

// Options selects which rules the optimizer applies. The zero value
// disables everything (the paper's "Raven (no-opt)" baseline still runs
// the data engine's own projection/zone pushdowns — see EngineOnly).
type Options struct {
	// PredicatePruning enables predicate-based model pruning (§4.1).
	PredicatePruning bool
	// ModelProjection enables model-projection pushdown (§4.1).
	ModelProjection bool
	// DataInduced enables statistics-driven model pruning (§4.2).
	DataInduced bool
	// PerPartition compiles a specialized model per partition (§4.2).
	PerPartition bool
	// EngineOnly controls the data engine's own optimizations (relational
	// projection pushdown, zone predicates); on for every configuration in
	// the paper, including the no-opt baseline.
	EngineOnly bool
	// AssumeFK allows join elimination when the build side contributes
	// only its key (sound under FK integrity, which the generated
	// datasets guarantee).
	AssumeFK bool
	// Strategy picks the logical-to-physical transformation per predict
	// node; nil keeps the ML runtime.
	Strategy RuntimeStrategy
	// ExecDOP is the real execution parallelism of the engine profile;
	// strategies implementing ParallelAwareStrategy can use it to shift
	// their runtime-selection thresholds (a parallel ML runtime amortizes
	// differently than a serial one). Since the engine parallelizes
	// across hash-join and aggregation breakers (probe-side exchanges
	// over a shared build table, per-worker partial aggregation), the
	// predict operator scales with ExecDOP in every plan shape — joins
	// or aggregates above/below the predict no longer serialize it — so
	// DOP-aware thresholds apply uniformly. 0 or 1 means serial
	// execution.
	ExecDOP int
}

// DefaultOptions enables all logical optimizations with no
// logical-to-physical strategy.
func DefaultOptions() Options {
	return Options{
		PredicatePruning: true,
		ModelProjection:  true,
		DataInduced:      true,
		PerPartition:     true,
		EngineOnly:       true,
		AssumeFK:         true,
	}
}

// NoOpt is the paper's "Raven (no-opt)" baseline: only the data engine's
// own optimizations run.
func NoOpt() Options {
	return Options{EngineOnly: true}
}

// Report records what the optimizer did, for explainability and for the
// experiment harness.
type Report struct {
	Fired             []string
	ConstantInputs    []string
	RemovedInputs     []string
	TreeNodesPruned   int
	LinearTermsFolded int
	EliminatedJoins   int
	PartitionModels   int
	// PrunedColumnsPerPartition is the Table 2 metric.
	PrunedColumnsPerPartition []int
	ScanColumns               map[string][]string
	Features                  *Features
	Choice                    Choice
	ChoiceBy                  string
	SQLSize                   int
	Notes                     []string
}

func (r *Report) fire(rule string) {
	for _, f := range r.Fired {
		if f == rule {
			return
		}
	}
	r.Fired = append(r.Fired, rule)
}

// DidFire reports whether the named rule fired.
func (r *Report) DidFire(rule string) bool {
	for _, f := range r.Fired {
		if f == rule {
			return true
		}
	}
	return false
}

// String summarizes the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rules: %s\n", strings.Join(r.Fired, ", "))
	if len(r.ConstantInputs) > 0 {
		fmt.Fprintf(&b, "constant inputs: %v\n", r.ConstantInputs)
	}
	if len(r.RemovedInputs) > 0 {
		fmt.Fprintf(&b, "removed inputs: %v\n", r.RemovedInputs)
	}
	if r.TreeNodesPruned > 0 {
		fmt.Fprintf(&b, "tree nodes pruned: %d\n", r.TreeNodesPruned)
	}
	if r.EliminatedJoins > 0 {
		fmt.Fprintf(&b, "joins eliminated: %d\n", r.EliminatedJoins)
	}
	if r.PartitionModels > 0 {
		fmt.Fprintf(&b, "per-partition models: %d\n", r.PartitionModels)
	}
	fmt.Fprintf(&b, "runtime choice: %s (by %s)\n", r.Choice, r.ChoiceBy)
	return b.String()
}

// Optimizer is Raven's co-optimizer: it rewrites unified-IR plans before
// the engine lowers them.
type Optimizer struct {
	Cat  ir.Catalog
	Opts Options
}

// New builds an optimizer over the catalog.
func New(cat ir.Catalog, opts Options) *Optimizer {
	return &Optimizer{Cat: cat, Opts: opts}
}

// Optimize rewrites a (cloned) plan and reports what happened. The input
// graph is never mutated.
func (o *Optimizer) Optimize(g *ir.Graph) (*ir.Graph, *Report, error) {
	rep := &Report{ChoiceBy: "none"}
	out := g.Clone()

	predicts := ir.FindAll(out.Root, func(n *ir.Node) bool { return n.Kind == ir.KindPredict })

	// Logical optimizations first (always beneficial, §5.2), in the
	// paper's order: predicate-based pruning before model projection,
	// since the former exposes more unused features for the latter.
	for _, n := range predicts {
		originalInputs := len(n.Pipeline.Inputs)
		if o.Opts.PredicatePruning {
			cons := collectConstraints(n)
			if err := predicateModelPruning(n, cons, rep); err != nil {
				return nil, nil, err
			}
			outputPredicatePruning(out.Root, n, rep)
		}
		if o.Opts.DataInduced {
			if err := dataInducedGlobal(out.Root, n, o.Cat, rep); err != nil {
				return nil, nil, err
			}
		}
		split := false
		if o.Opts.DataInduced && o.Opts.PerPartition {
			var err error
			split, err = dataInducedPerPartition(out, n, o.Cat, rep)
			if err != nil {
				return nil, nil, err
			}
		}
		if split {
			// The node was replaced by a union of per-partition predicts;
			// continue optimizing those instead.
			union := ir.Find(out.Root, func(x *ir.Node) bool { return x.Kind == ir.KindUnion })
			subPredicts := ir.FindAll(union, func(x *ir.Node) bool { return x.Kind == ir.KindPredict })
			for _, sp := range subPredicts {
				if o.Opts.ModelProjection {
					if err := modelProjectionPushdown(sp, rep); err != nil {
						return nil, nil, err
					}
				}
			}
			rep.PrunedColumnsPerPartition = partitionPrunedColumns(union, originalInputs)
			continue
		}
		if o.Opts.ModelProjection {
			if err := modelProjectionPushdown(n, rep); err != nil {
				return nil, nil, err
			}
		}
	}

	// The data engine's own optimizations (also applied to no-opt runs).
	if o.Opts.EngineOnly {
		if err := pushdownRelationalProjections(out, o.Cat, o.Opts.AssumeFK, rep); err != nil {
			return nil, nil, err
		}
		if err := pushdownZonePredicates(out, o.Cat, rep); err != nil {
			return nil, nil, err
		}
	}

	// Logical-to-physical: runtime selection per predict node (§5).
	if o.Opts.Strategy != nil {
		predicts = ir.FindAll(out.Root, func(n *ir.Node) bool { return n.Kind == ir.KindPredict })
		for _, n := range predicts {
			if err := o.selectRuntime(n, rep); err != nil {
				return nil, nil, err
			}
		}
	}

	if err := out.Validate(o.Cat); err != nil {
		return nil, nil, fmt.Errorf("opt: optimized plan invalid: %w", err)
	}
	return out, rep, nil
}

// selectRuntime asks the strategy for a transformation and applies it,
// falling back to the ML runtime when a translation fails (e.g.
// unsupported operators).
func (o *Optimizer) selectRuntime(n *ir.Node, rep *Report) error {
	f := ExtractFeatures(n.Pipeline)
	rep.Features = f
	var choice Choice
	if ps, ok := o.Opts.Strategy.(ParallelAwareStrategy); ok && o.Opts.ExecDOP > 1 {
		choice = ps.ChooseParallel(f, o.Opts.ExecDOP)
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("runtime selected DOP-aware at execDOP=%d", o.Opts.ExecDOP))
	} else {
		choice = o.Opts.Strategy.Choose(f)
	}
	rep.ChoiceBy = o.Opts.Strategy.Name()
	switch choice {
	case ChoiceSQL:
		exprs, err := CompileToSQL(n.Pipeline, n.InputMap, n.OutputMap)
		if err != nil {
			rep.Notes = append(rep.Notes, "MLtoSQL failed: "+err.Error())
			choice = ChoiceNone
			break
		}
		n.Target = ir.TargetSQL
		n.SQLExprs = exprs
		for _, e := range exprs {
			rep.SQLSize += relationalSize(e)
		}
		rep.fire("MLtoSQL")
	case ChoiceDNN:
		if _, err := hummingbird.Compile(n.Pipeline); err != nil {
			rep.Notes = append(rep.Notes, "MLtoDNN failed: "+err.Error())
			choice = ChoiceNone
			break
		}
		n.Target = ir.TargetDNN
		rep.fire("MLtoDNN")
	}
	rep.Choice = choice
	return nil
}

// relationalSize measures an expression tree's node count.
func relationalSize(e relational.NamedExpr) int {
	return relational.Size(e.E)
}
