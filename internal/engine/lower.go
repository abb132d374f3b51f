package engine

import (
	"fmt"

	"raven/internal/ir"
	"raven/internal/relational"
)

// Lower converts a unified-IR plan into a physical operator tree under the
// given profile. When the profile requests real parallelism (ExecDOP > 1)
// partition-parallel segments are rewritten into morsel-driven Exchange
// operators; hash joins inside such segments probe in parallel against a
// shared build table, and the aggregation (global or grouped) and the sort
// fold partials their exchange workers computed (per-worker accumulators
// and sorted runs) instead of computing them inline, so join-, aggregate-
// and sort-heavy prediction queries scale past one core too. Each breaker
// is one operator either way. The profile batch size doubles as the
// morsel size, which keeps parallel batch boundaries aligned with serial
// ones — the property the partial-aggregation fold relies on for
// bit-identical results.
//
// Column representations flow through lowering untouched: scans emit the
// catalog tables' dictionary-encoded string columns as-is, so both the
// ML-runtime path (PredictOp → Session.Bind → code-LUT encoders) and the
// MLtoSQL path (Project over CASE/equality expressions comparing
// dictionary codes) see the same representation, and optimized and
// unoptimized plans stay byte-identical across representations (asserted
// by the differential harnesses).
func Lower(g *ir.Graph, cat *Catalog, prof Profile) (Operator, error) {
	l := &lowerer{cat: cat, prof: prof}
	root, err := l.lower(g.Root)
	if err != nil {
		return nil, err
	}
	return relational.Parallelize(root, prof.ExecDOP, prof.BatchSize)
}

type lowerer struct {
	cat  *Catalog
	prof Profile
}

func (l *lowerer) lower(n *ir.Node) (Operator, error) {
	switch n.Kind {
	case ir.KindScan:
		t, ok := l.cat.Table(n.Table)
		if !ok {
			return nil, fmt.Errorf("engine: unknown table %q", n.Table)
		}
		s := relational.NewScan(t, n.Alias, n.Columns, l.prof.BatchSize)
		s.Prune = n.Prune
		if n.PartIndex >= 0 {
			s.PartIndex = n.PartIndex
		}
		return s, nil
	case ir.KindFilter:
		child, err := l.lower(n.Children[0])
		if err != nil {
			return nil, err
		}
		return &relational.Filter{Child: child, Pred: n.Pred}, nil
	case ir.KindProject:
		child, err := l.lower(n.Children[0])
		if err != nil {
			return nil, err
		}
		return &relational.Project{Child: child, Exprs: n.Exprs}, nil
	case ir.KindJoin:
		left, err := l.lower(n.Children[0])
		if err != nil {
			return nil, err
		}
		right, err := l.lower(n.Children[1])
		if err != nil {
			return nil, err
		}
		return &relational.HashJoin{Left: left, Right: right,
			LeftKey: n.LeftKey, RightKey: n.RightKey}, nil
	case ir.KindAggregate:
		child, err := l.lower(n.Children[0])
		if err != nil {
			return nil, err
		}
		// One breaker for global (no GroupBy keys) and grouped
		// aggregation; under ExecDOP > 1 the Parallelize rewrite moves
		// the per-batch grouping into PartialGroupAggregate workers below
		// it.
		return &relational.GroupAggregate{Child: child, Keys: n.GroupBy, Aggs: n.Aggs}, nil
	case ir.KindHaving:
		child, err := l.lower(n.Children[0])
		if err != nil {
			return nil, err
		}
		// HAVING is a Filter above the aggregation breaker, where group
		// keys and aggregate outputs exist as columns.
		return &relational.Filter{Child: child, Pred: n.Pred}, nil
	case ir.KindSort:
		child, err := l.lower(n.Children[0])
		if err != nil {
			return nil, err
		}
		if len(n.OrderBy) == 0 {
			// LIMIT/OFFSET without ORDER BY: a pure positional window over
			// the deterministic batch stream.
			return &relational.Limit{Child: child, N: n.Limit, Offset: n.Offset}, nil
		}
		// ORDER BY [LIMIT] [OFFSET]: a sort breaker with a typed multi-key
		// comparator; a non-negative limit turns it into a top-k heap (an
		// offset widens the heap to offset+limit rows). Under ExecDOP > 1
		// the Parallelize rewrite moves the per-batch run sorting into
		// PartialSort workers below it.
		return &relational.Sort{Child: child, Keys: n.OrderBy, Limit: n.Limit, Offset: n.Offset}, nil
	case ir.KindUnion:
		inputs := make([]Operator, len(n.Children))
		for i, c := range n.Children {
			op, err := l.lower(c)
			if err != nil {
				return nil, err
			}
			inputs[i] = op
		}
		return &relational.Union{Inputs: inputs}, nil
	case ir.KindPredict:
		return l.lowerPredict(n)
	}
	return nil, fmt.Errorf("engine: cannot lower node kind %v", n.Kind)
}

func (l *lowerer) lowerPredict(n *ir.Node) (Operator, error) {
	child, err := l.lower(n.Children[0])
	if err != nil {
		return nil, err
	}
	switch n.Target {
	case ir.TargetSQL:
		// MLtoSQL: the pipeline became relational expressions; no ML
		// runtime is involved. Pass input columns through, then compute
		// each mapped output.
		var exprs []relational.NamedExpr
		if n.KeepInput {
			for _, c := range child.Columns() {
				exprs = append(exprs, relational.NamedExpr{Name: c, E: relational.Col(c)})
			}
		}
		if len(n.SQLExprs) == 0 {
			return nil, fmt.Errorf("engine: predict node %d targets SQL but has no expressions", n.ID)
		}
		exprs = append(exprs, n.SQLExprs...)
		return &relational.Project{Child: child, Exprs: exprs}, nil
	case ir.TargetDNN:
		return l.lowerDNN(n, child)
	default:
		return &PredictOp{
			Child:               child,
			Pipeline:            n.Pipeline,
			InputMap:            n.InputMap,
			OutputMap:           n.OutputMap,
			KeepInput:           n.KeepInput,
			MaterializeFeatures: l.prof.MaterializeFeaturization,
			// Sessions for this pipeline+binding are checked out of the
			// catalog's engine-level pool, shared across queries.
			Shared: l.cat.Sessions(),
		}, nil
	}
}
