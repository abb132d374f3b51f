package engine

import (
	"sync"

	"raven/internal/data"
	"raven/internal/ir"
	"raven/internal/mlruntime"
	"raven/internal/model"
	"raven/internal/opt"
	"raven/internal/relational"
)

// This file implements the predict half of mid-query re-optimization: the
// plan-time runtime choice for a predict node (ML runtime, MLtoSQL
// projection, or tensor compilation) is re-decided at the operator's Open,
// after the pipeline breakers below it have recorded their true
// cardinalities. Plan-time choices are made from table statistics; by Open
// time the join builds under the predict segment have fully drained, so the
// corrected input cardinality is known before a single prediction runs.
// Switching is safe for byte-identity because all three physical forms of a
// predict node produce identical bytes (the invariant the differential
// harnesses assert); only the cost changes.

// adaptivePredict reports whether predict nodes should lower to the
// re-deciding operator under the current profile.
func (l *lowerer) adaptivePredict() bool {
	return l.prof.Adaptive && l.prof.AdaptiveChooser != nil && !l.prof.MaterializeFeaturization
}

// lowerAdaptivePredict lowers a predict node to an AdaptivePredict carrying
// the plan-time (static) choice plus everything needed to rebuild the
// physical operator under a different choice at Open.
func (l *lowerer) lowerAdaptivePredict(n *ir.Node, child Operator, static opt.Choice) Operator {
	return &AdaptivePredict{
		Child:     child,
		Pipeline:  n.Pipeline,
		InputMap:  n.InputMap,
		OutputMap: n.OutputMap,
		KeepInput: n.KeepInput,
		Static:    static,
		EstRows:   l.est(n.Children[0]),
		Chooser:   l.prof.AdaptiveChooser,
		ExecDOP:   l.prof.ExecDOP,
		Shared:    l.cat.Sessions(),
	}
}

// adaptiveDecision is the once-per-query runtime decision shared between an
// AdaptivePredict template and all of its exchange worker clones: the first
// Open (always the exchange template's, or the sole serial instance's)
// re-costs with the observed cardinality and fixes the choice; every clone
// then builds its inner operator under the same choice, so all workers emit
// identical layouts. Under MLtoDNN it also holds the program every clone's
// inner DNNOp runs, compiled once.
type adaptiveDecision struct {
	once     sync.Once
	choice   opt.Choice
	sqlExprs []relational.NamedExpr
	dnn      *dnnProgram
	err      error
}

// AdaptivePredict is the physical predict operator under mid-query
// re-optimization: at Open — after its child subtree has opened, which
// drains and observes every join build below — it re-costs the predict
// segment with the observed cardinalities and picks the cheapest physical
// form (ML runtime session, MLtoSQL projection, or Hummingbird tensor
// program), then executes batches through that inner operator via a
// single-batch feed. The decision is made once per query and shared with
// all exchange worker clones.
type AdaptivePredict struct {
	Child     Operator
	Pipeline  *model.Pipeline
	InputMap  map[string]string
	OutputMap map[string]string
	KeepInput bool
	// Static is the plan-time choice; it stands unless the observed
	// cardinality contradicts the estimate by the re-opt factor.
	Static opt.Choice
	// Shared is the engine-level ML session pool an ML-runtime inner
	// operator checks its sessions out of.
	Shared *mlruntime.Pool
	// EstRows is the plan-time input-cardinality estimate, corrected at
	// Open by the observations in the environment's adaptive context.
	EstRows float64
	// Chooser re-picks the runtime from features + corrected cardinality.
	Chooser opt.CardinalityAwareStrategy
	ExecDOP int

	dec   *adaptiveDecision
	feed  *relational.BatchSource
	inner Operator
	stats relational.OpStats
}

// Columns returns pass-through columns plus mapped prediction outputs —
// identical under every choice, which is what makes switching invisible to
// the operators above.
func (a *AdaptivePredict) Columns() []string {
	return predictColumns(a.Child, a.Pipeline, a.OutputMap, a.KeepInput)
}

// OutputSchema implements relational.SchemaProvider (prediction outputs are
// Float64 score columns under every choice).
func (a *AdaptivePredict) OutputSchema() (data.Schema, bool) {
	return predictSchema(a.Child, a.Pipeline, a.OutputMap, a.KeepInput)
}

// Open opens the child (draining the join builds below and populating the
// environment's adaptive context), fixes the runtime decision, and opens
// the chosen inner operator over the feed. Without an adaptive context the
// plan-time choice stands.
func (a *AdaptivePredict) Open(env *relational.Env) error {
	a.stats = relational.OpStats{Name: "AdaptivePredict(" + a.Pipeline.Name + ")"}
	defer timeOp(&a.stats)()
	if a.dec == nil {
		a.dec = &adaptiveDecision{}
	}
	if err := a.Child.Open(env); err != nil {
		return err
	}
	var obs relational.AdaptiveContext
	if env != nil {
		obs = env.Observe
	}
	if err := a.decide(obs); err != nil {
		return err
	}
	return a.openInner(env)
}

// decide fixes the runtime choice once per query, and compiles the tensor
// program when that choice is MLtoDNN.
func (a *AdaptivePredict) decide(obs relational.AdaptiveContext) error {
	a.dec.once.Do(func() {
		a.dec.choice = a.Static
		a.rechoose(obs)
		if a.dec.choice == opt.ChoiceDNN && a.dec.dnn == nil {
			a.dec.dnn, a.dec.err = compileDNN(a.Pipeline, a.InputMap)
		}
	})
	return a.dec.err
}

// rechoose switches the plan-time choice only when (a) the observed
// cardinalities contradict the plan-time estimate by the re-opt factor,
// (b) the chooser picks a different runtime for the corrected cardinality,
// and (c) the new physical form validates (MLtoSQL translation or tensor
// compilation succeeds) — otherwise the plan-time choice stands, so a
// failed switch can never break a running query.
func (a *AdaptivePredict) rechoose(obs relational.AdaptiveContext) {
	if obs == nil || a.Chooser == nil {
		return
	}
	adj, trigger := obs.Reoptimize(a.EstRows)
	if !trigger {
		return
	}
	next := a.Chooser.ChooseWithCardinality(opt.ExtractFeatures(a.Pipeline), a.ExecDOP, adj)
	if next == a.dec.choice {
		return
	}
	switch next {
	case opt.ChoiceSQL:
		exprs, err := opt.CompileToSQL(a.Pipeline, a.InputMap, a.OutputMap)
		if err != nil {
			return
		}
		a.dec.sqlExprs = exprs
	case opt.ChoiceDNN:
		// Validate by compiling now; the program is kept, so the switch
		// pays compilation exactly once.
		prog, err := compileDNN(a.Pipeline, a.InputMap)
		if err != nil {
			return
		}
		a.dec.dnn = prog
	}
	obs.RecordSwitch("predict", a.dec.choice.String(), next.String())
	a.dec.choice = next
}

// openInner builds and opens the physical operator for the decided choice.
func (a *AdaptivePredict) openInner(env *relational.Env) error {
	a.feed = relational.NewBatchSource(a.Child)
	switch a.dec.choice {
	case opt.ChoiceSQL:
		var exprs []relational.NamedExpr
		if a.KeepInput {
			for _, c := range a.feed.Columns() {
				exprs = append(exprs, relational.NamedExpr{Name: c, E: relational.Col(c)})
			}
		}
		exprs = append(exprs, a.dec.sqlExprs...)
		a.inner = &relational.Project{Child: a.feed, Exprs: exprs}
	case opt.ChoiceDNN:
		a.inner = &DNNOp{
			Child:     a.feed,
			Pipeline:  a.Pipeline,
			OutputMap: a.OutputMap,
			KeepInput: a.KeepInput,
			prog:      a.dec.dnn,
		}
	default:
		a.inner = &PredictOp{
			Child:     a.feed,
			Pipeline:  a.Pipeline,
			InputMap:  a.InputMap,
			OutputMap: a.OutputMap,
			KeepInput: a.KeepInput,
			Shared:    a.Shared,
		}
	}
	return a.inner.Open(env)
}

// Next pushes the next child batch through the decided inner operator.
func (a *AdaptivePredict) Next() (*data.Table, error) {
	defer timeOp(&a.stats)()
	for {
		b, err := a.Child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		a.feed.Load(b)
		out, err := a.inner.Next()
		if err != nil {
			return nil, err
		}
		if out == nil {
			continue
		}
		a.stats.Rows += int64(out.NumRows())
		a.stats.Batches++
		return out, nil
	}
}

// Close closes the inner operator (returning any pooled session) and the
// child.
func (a *AdaptivePredict) Close() error {
	var err error
	if a.inner != nil {
		err = a.inner.Close()
	}
	if cerr := a.Child.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns the operator statistics.
func (a *AdaptivePredict) Stats() *relational.OpStats { return &a.stats }

// Children exposes the inner operator (once decided) so statistics
// collection and boundary accounting see the physical predict operator,
// plus the real child.
func (a *AdaptivePredict) Children() []Operator {
	if a.inner != nil {
		return []Operator{a.inner, a.Child}
	}
	return []Operator{a.Child}
}

// ChainChild implements the exchange chain protocol: morsel flow passes
// through the real child; the inner operator is private to this operator.
func (a *AdaptivePredict) ChainChild() Operator { return a.Child }

// CloneWorker implements relational.ParallelOp: clones share the decision
// (and through it the compiled program), each building a
// private inner operator at Open under the already-fixed choice.
func (a *AdaptivePredict) CloneWorker(child Operator) (Operator, error) {
	if a.dec == nil {
		a.dec = &adaptiveDecision{}
	}
	return &AdaptivePredict{
		Child:     child,
		Pipeline:  a.Pipeline,
		InputMap:  a.InputMap,
		OutputMap: a.OutputMap,
		KeepInput: a.KeepInput,
		Static:    a.Static,
		Shared:    a.Shared,
		EstRows:   a.EstRows,
		Chooser:   a.Chooser,
		ExecDOP:   a.ExecDOP,
		dec:       a.dec,
	}, nil
}

// AbsorbWorker folds a worker clone's statistics — and its inner
// operator's boundary counters — back into the template.
func (a *AdaptivePredict) AbsorbWorker(clone Operator) {
	c := clone.(*AdaptivePredict)
	if t, ok := a.inner.(relational.ParallelOp); ok && c.inner != nil {
		t.AbsorbWorker(c.inner)
	}
	a.stats.Absorb(&c.stats)
}

// CanParallelize reports that the operator may run inside an exchange (the
// serial-only MADlib mode never lowers to AdaptivePredict).
func (a *AdaptivePredict) CanParallelize() bool { return true }
