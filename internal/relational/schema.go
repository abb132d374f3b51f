package relational

import "raven/internal/data"

// This file derives the static output schema (column names AND types) of a
// physical operator tree. Its one executional consumer is Drain: a query
// whose operators produce zero batches (e.g. a sort over an all-filtered
// input) must still return a result table with correctly typed columns,
// not the historical all-Float64 synthesis.

// SchemaProvider is an optional interface for operators defined outside
// this package (the engine's Predict/DNN operators) to report their static
// output schema to SchemaOf.
type SchemaProvider interface {
	OutputSchema() (data.Schema, bool)
}

// SchemaOf returns the static output schema of an operator tree. The
// boolean reports whether the schema could be fully derived; on false the
// caller should fall back to name-only information (Columns).
func SchemaOf(op Operator) (data.Schema, bool) {
	switch o := op.(type) {
	case *Scan:
		return scanSchema(o)
	case *Filter:
		return SchemaOf(o.Child)
	case *Project:
		child, ok := SchemaOf(o.Child)
		if !ok {
			return nil, false
		}
		out := make(data.Schema, len(o.Exprs))
		for i, ne := range o.Exprs {
			out[i] = data.Field{Name: ne.Name, Type: exprType(ne.E, child)}
		}
		return out, true
	case *HashJoin:
		if o.Right == nil {
			// A worker clone: the template holds the build side.
			return nil, false
		}
		return joinSchema(o.Left, o.Right)
	case *GroupAggregate:
		return groupedSchema(o.Child, o.Keys, o.Aggs)
	case *PartialGroupAggregate:
		keys, ok := keySchema(o.Child, o.Keys)
		if !ok {
			return nil, false
		}
		return append(keys, floatSchema(partialColumns(len(o.Aggs)))...), true
	case *Sort:
		return SchemaOf(o.Child)
	case *PartialSort:
		return SchemaOf(o.Child)
	case *Limit:
		return SchemaOf(o.Child)
	case *Union:
		if len(o.Inputs) == 0 {
			return nil, false
		}
		return SchemaOf(o.Inputs[0])
	case *Exchange:
		// The template chain bottoms out at the real Scan, so the walk
		// derives the same schema the worker clones produce.
		return SchemaOf(o.Template)
	}
	if sp, ok := op.(SchemaProvider); ok {
		return sp.OutputSchema()
	}
	return nil, false
}

// scanSchema projects and qualifies the table schema exactly like the
// scan's output batches.
func scanSchema(s *Scan) (data.Schema, bool) {
	full := s.Table.Schema()
	names := s.Cols
	if names == nil {
		names = full.Names()
	}
	out := make(data.Schema, 0, len(names))
	for _, n := range names {
		i := full.Index(n)
		if i < 0 {
			return nil, false
		}
		out = append(out, data.Field{Name: s.qualify(n), Type: full[i].Type})
	}
	return out, true
}

func joinSchema(probe, build Operator) (data.Schema, bool) {
	l, ok := SchemaOf(probe)
	if !ok {
		return nil, false
	}
	r, ok := SchemaOf(build)
	if !ok {
		return nil, false
	}
	return append(append(data.Schema{}, l...), r...), true
}

// aggSchema is the aggregate outputs: every column (COUNT included)
// finalizes as Float64.
func aggSchema(aggs []AggSpec) data.Schema {
	out := make(data.Schema, len(aggs))
	for i, g := range aggs {
		out[i] = data.Field{Name: g.As, Type: data.Float64}
	}
	return out
}

func floatSchema(names []string) data.Schema {
	out := make(data.Schema, len(names))
	for i, n := range names {
		out[i] = data.Field{Name: n, Type: data.Float64}
	}
	return out
}

// keySchema resolves the group-key columns against the child schema; key
// columns keep their input type in the grouped output. No keys (a global
// aggregate) need no child schema.
func keySchema(child Operator, keys []string) (data.Schema, bool) {
	if len(keys) == 0 {
		return data.Schema{}, true
	}
	cs, ok := SchemaOf(child)
	if !ok {
		return nil, false
	}
	out := make(data.Schema, 0, len(keys))
	for _, k := range keys {
		i := cs.Index(k)
		if i < 0 {
			return nil, false
		}
		out = append(out, cs[i])
	}
	return out, true
}

func groupedSchema(child Operator, keys []string, aggs []AggSpec) (data.Schema, bool) {
	ks, ok := keySchema(child, keys)
	if !ok {
		return nil, false
	}
	return append(ks, aggSchema(aggs)...), true
}

// exprType statically types a vectorized expression against the child
// schema, mirroring what Eval produces: comparisons, AND/OR, NOT and IN
// yield Bool; string literals yield String; everything numeric (arithmetic,
// scalar functions, CASE, numeric literals) yields Float64.
func exprType(e Expr, child data.Schema) data.Type {
	switch x := e.(type) {
	case *ColRef:
		if i := child.Index(x.Name); i >= 0 {
			return child[i].Type
		}
	case *LitString:
		return data.String
	case *BinOp:
		switch x.Op {
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr:
			return data.Bool
		}
	case *Not:
		return data.Bool
	case *InList:
		return data.Bool
	}
	// LitFloat, arithmetic BinOps, Func, Case and unknown expressions all
	// evaluate to float columns.
	return data.Float64
}

// emptyOf synthesizes op's zero-row result: typed columns from its static
// schema (SchemaOf), or — only when that cannot be derived — all-Float64
// columns named by Columns.
func emptyOf(op Operator) (*data.Table, error) {
	if s, ok := SchemaOf(op); ok {
		return emptyTyped(s)
	}
	t, err := data.NewTable("empty")
	if err != nil {
		return nil, err
	}
	for _, c := range op.Columns() {
		if err := t.AddColumn(data.NewFloat(c, nil)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// emptyTyped builds a zero-row table matching the schema, preserving
// column types so empty results are distinguishable from float columns.
func emptyTyped(s data.Schema) (*data.Table, error) {
	t, err := data.NewTable("empty")
	if err != nil {
		return nil, err
	}
	for _, f := range s {
		var c *data.Column
		switch f.Type {
		case data.Int64:
			c = data.NewInt(f.Name, nil)
		case data.String:
			c = data.NewString(f.Name, nil)
		case data.Bool:
			c = data.NewBool(f.Name, nil)
		default:
			c = data.NewFloat(f.Name, nil)
		}
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}
