// Package ir implements Raven's unified intermediate representation: a
// single DAG that holds relational operators (scan, filter, project, join,
// aggregate) and ML operators (the trained pipeline inside a predict node,
// plus its MLtoSQL / MLtoDNN rewrites). Having both operator families in
// one graph is what unlocks the cross-optimizations of §4 and the runtime
// selection of §5 in the paper.
package ir

import (
	"fmt"
	"strings"

	"raven/internal/data"
	"raven/internal/model"
	"raven/internal/relational"
)

// Catalog resolves table and model names. The engine provides the
// concrete implementation; the parser and optimizer depend only on this
// interface.
type Catalog interface {
	// Table returns the named partitioned table.
	Table(name string) (*data.PartitionedTable, bool)
	// Model returns the named trained pipeline.
	Model(name string) (*model.Pipeline, bool)
}

// NodeKind enumerates IR node kinds.
type NodeKind uint8

// IR node kinds.
const (
	// KindScan reads a base table.
	KindScan NodeKind = iota
	// KindFilter keeps rows satisfying Pred.
	KindFilter
	// KindProject computes named expressions.
	KindProject
	// KindJoin is an inner equi-join of its two children.
	KindJoin
	// KindPredict invokes a trained pipeline on its child's rows (the
	// boundary between the data engine and the ML runtime).
	KindPredict
	// KindAggregate computes global aggregates.
	KindAggregate
	// KindUnion concatenates its children (used by per-partition plans).
	KindUnion
	// KindHaving filters grouped-aggregation output rows (the HAVING
	// clause); Pred may reference group keys and aggregate outputs.
	KindHaving
	// KindSort orders its child's rows by OrderBy and cuts them to Limit
	// (ORDER BY / LIMIT); an empty OrderBy with a non-negative Limit is a
	// pure row cutoff.
	KindSort
)

func (k NodeKind) String() string {
	switch k {
	case KindScan:
		return "Scan"
	case KindFilter:
		return "Filter"
	case KindProject:
		return "Project"
	case KindJoin:
		return "Join"
	case KindPredict:
		return "Predict"
	case KindAggregate:
		return "Aggregate"
	case KindUnion:
		return "Union"
	case KindHaving:
		return "Having"
	case KindSort:
		return "Sort"
	}
	return fmt.Sprintf("NodeKind(%d)", uint8(k))
}

// PredictTarget selects the runtime executing a predict node after
// logical-to-physical optimization.
type PredictTarget uint8

// Runtime targets for a predict node.
const (
	// TargetML runs the pipeline on the ML runtime (default).
	TargetML PredictTarget = iota
	// TargetSQL means the node was rewritten by MLtoSQL; SQLExprs holds
	// the translated expressions and the ML runtime is not invoked.
	TargetSQL
	// TargetDNN runs the Hummingbird-compiled tensor program (MLtoDNN).
	TargetDNN
)

func (t PredictTarget) String() string {
	switch t {
	case TargetML:
		return "ML"
	case TargetSQL:
		return "SQL"
	case TargetDNN:
		return "DNN"
	}
	return fmt.Sprintf("PredictTarget(%d)", uint8(t))
}

// Node is one IR node. Field groups are used according to Kind.
type Node struct {
	ID       int
	Kind     NodeKind
	Children []*Node

	// Scan fields.
	Table   string
	Alias   string
	Columns []string // nil = all columns
	Prune   []relational.ZonePredicate
	// PartIndex restricts the scan to one partition (-1 = all); used by
	// per-partition plans from the data-induced optimization.
	PartIndex int

	// Filter fields.
	Pred relational.Expr

	// Project fields.
	Exprs []relational.NamedExpr

	// Join fields.
	LeftKey, RightKey string

	// Predict fields.
	Pipeline *model.Pipeline
	// InputMap maps pipeline input name → child column name.
	InputMap map[string]string
	// OutputMap maps pipeline output value name → result column name.
	OutputMap map[string]string
	// KeepInput indicates the child's columns pass through alongside the
	// prediction outputs.
	KeepInput bool
	Target    PredictTarget
	// SQLExprs holds the MLtoSQL translation (one expression per mapped
	// output) when Target == TargetSQL.
	SQLExprs []relational.NamedExpr

	// Aggregate fields. GroupBy holds the resolved group-key column
	// names (empty for global aggregates); output columns are the keys in
	// GroupBy order followed by the aggregate outputs.
	Aggs    []relational.AggSpec
	GroupBy []string

	// Sort fields (KindSort). OrderBy holds the resolved sort keys with
	// direction; Limit is the row cutoff, negative for none; Offset is the
	// count of leading ordered rows to skip, zero for none. Having nodes
	// (KindHaving) carry their predicate in Pred.
	OrderBy []relational.SortKey
	Limit   int
	Offset  int
}

// Graph is a rooted IR tree plus an ID allocator.
type Graph struct {
	Root   *Node
	nextID int
}

// NewGraph creates a graph rooted at root, numbering all nodes.
func NewGraph(root *Node) *Graph {
	g := &Graph{Root: root}
	g.renumber()
	return g
}

func (g *Graph) renumber() {
	id := 0
	Walk(g.Root, func(n *Node) {
		n.ID = id
		id++
	})
	g.nextID = id
}

// NewNode allocates a node of the given kind with fresh ID.
func (g *Graph) NewNode(kind NodeKind, children ...*Node) *Node {
	n := &Node{ID: g.nextID, Kind: kind, Children: children, PartIndex: -1}
	g.nextID++
	return n
}

// Walk visits nodes in pre-order.
func Walk(n *Node, fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		Walk(c, fn)
	}
}

// Find returns the first node (pre-order) satisfying pred, or nil.
func Find(n *Node, pred func(*Node) bool) *Node {
	var found *Node
	Walk(n, func(x *Node) {
		if found == nil && pred(x) {
			found = x
		}
	})
	return found
}

// FindAll returns all nodes (pre-order) satisfying pred.
func FindAll(n *Node, pred func(*Node) bool) []*Node {
	var out []*Node
	Walk(n, func(x *Node) {
		if pred(x) {
			out = append(out, x)
		}
	})
	return out
}

// Parent returns the parent of target within the tree rooted at root, or
// nil if target is the root (or absent).
func Parent(root, target *Node) *Node {
	return Find(root, func(n *Node) bool {
		for _, c := range n.Children {
			if c == target {
				return true
			}
		}
		return false
	})
}

// Clone deep-copies the graph. Expressions are shared (they are
// immutable); pipelines are deep-copied since rules rewrite them.
func (g *Graph) Clone() *Graph {
	var rec func(n *Node) *Node
	rec = func(n *Node) *Node {
		if n == nil {
			return nil
		}
		c := *n
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = rec(ch)
		}
		if n.Pipeline != nil {
			c.Pipeline = n.Pipeline.Clone()
		}
		c.Columns = append([]string(nil), n.Columns...)
		c.Prune = append([]relational.ZonePredicate(nil), n.Prune...)
		c.Exprs = append([]relational.NamedExpr(nil), n.Exprs...)
		c.SQLExprs = append([]relational.NamedExpr(nil), n.SQLExprs...)
		c.Aggs = append([]relational.AggSpec(nil), n.Aggs...)
		c.GroupBy = append([]string(nil), n.GroupBy...)
		c.OrderBy = append([]relational.SortKey(nil), n.OrderBy...)
		if n.InputMap != nil {
			c.InputMap = make(map[string]string, len(n.InputMap))
			for k, v := range n.InputMap {
				c.InputMap[k] = v
			}
		}
		if n.OutputMap != nil {
			c.OutputMap = make(map[string]string, len(n.OutputMap))
			for k, v := range n.OutputMap {
				c.OutputMap[k] = v
			}
		}
		return &c
	}
	return NewGraph(rec(g.Root))
}

// OutputColumns computes the column names a node produces, resolving scan
// schemas through the catalog.
func OutputColumns(n *Node, cat Catalog) ([]string, error) {
	switch n.Kind {
	case KindScan:
		cols := n.Columns
		if cols == nil {
			t, ok := cat.Table(n.Table)
			if !ok {
				return nil, fmt.Errorf("ir: unknown table %q", n.Table)
			}
			cols = t.Schema().Names()
		}
		out := make([]string, len(cols))
		for i, c := range cols {
			out[i] = Qualify(n.Alias, c)
		}
		return out, nil
	case KindFilter, KindUnion, KindHaving, KindSort:
		if len(n.Children) == 0 {
			return nil, fmt.Errorf("ir: %v node %d has no child", n.Kind, n.ID)
		}
		return OutputColumns(n.Children[0], cat)
	case KindProject:
		out := make([]string, len(n.Exprs))
		for i, e := range n.Exprs {
			out[i] = e.Name
		}
		return out, nil
	case KindJoin:
		if len(n.Children) != 2 {
			return nil, fmt.Errorf("ir: join node %d needs 2 children", n.ID)
		}
		l, err := OutputColumns(n.Children[0], cat)
		if err != nil {
			return nil, err
		}
		r, err := OutputColumns(n.Children[1], cat)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case KindPredict:
		if len(n.Children) == 0 {
			return nil, fmt.Errorf("ir: predict node %d has no child", n.ID)
		}
		var out []string
		if n.KeepInput {
			in, err := OutputColumns(n.Children[0], cat)
			if err != nil {
				return nil, err
			}
			out = append(out, in...)
		}
		for _, v := range orderedOutputs(n) {
			out = append(out, v)
		}
		return out, nil
	case KindAggregate:
		out := make([]string, 0, len(n.GroupBy)+len(n.Aggs))
		out = append(out, n.GroupBy...)
		for _, a := range n.Aggs {
			out = append(out, a.As)
		}
		return out, nil
	}
	return nil, fmt.Errorf("ir: unknown node kind %v", n.Kind)
}

// orderedOutputs returns the predict node's mapped output column names in
// the pipeline's declared output order (deterministic).
func orderedOutputs(n *Node) []string {
	var out []string
	for _, v := range n.Pipeline.Outputs {
		if name, ok := n.OutputMap[v]; ok {
			out = append(out, name)
		}
	}
	return out
}

// Qualify joins an alias and a column name ("alias.col"); empty alias
// returns the bare name.
func Qualify(alias, col string) string {
	if alias == "" {
		return col
	}
	return alias + "." + col
}

// BaseName strips the qualifier from a column name.
func BaseName(col string) string {
	if i := strings.LastIndexByte(col, '.'); i >= 0 {
		return col[i+1:]
	}
	return col
}

// Explain renders the graph as an indented tree, including the pipeline's
// operator summary at predict nodes — the unified view of the query.
func (g *Graph) Explain() string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		pad := strings.Repeat("  ", depth)
		switch n.Kind {
		case KindScan:
			cols := "*"
			if n.Columns != nil {
				cols = strings.Join(n.Columns, ",")
			}
			fmt.Fprintf(&b, "%sScan %s", pad, n.Table)
			if n.Alias != "" && n.Alias != n.Table {
				fmt.Fprintf(&b, " AS %s", n.Alias)
			}
			fmt.Fprintf(&b, " [%s]", cols)
			if len(n.Prune) > 0 {
				fmt.Fprintf(&b, " prune=%d", len(n.Prune))
			}
			if n.PartIndex >= 0 {
				fmt.Fprintf(&b, " partition=%d", n.PartIndex)
			}
			b.WriteString("\n")
		case KindFilter:
			fmt.Fprintf(&b, "%sFilter %s\n", pad, n.Pred)
		case KindProject:
			names := make([]string, len(n.Exprs))
			for i, e := range n.Exprs {
				names[i] = e.Name
			}
			fmt.Fprintf(&b, "%sProject [%s]\n", pad, strings.Join(names, ","))
		case KindJoin:
			fmt.Fprintf(&b, "%sJoin %s = %s\n", pad, n.LeftKey, n.RightKey)
		case KindPredict:
			fmt.Fprintf(&b, "%sPredict[%s] model=%s ops=%d features=%d\n",
				pad, n.Target, n.Pipeline.Name, n.Pipeline.NumOperators(), n.Pipeline.NumFeatures())
			for _, op := range n.Pipeline.Ops {
				fmt.Fprintf(&b, "%s  ~ %s %s(%s)\n", pad, op.Kind(), op.OpName(),
					strings.Join(op.Inputs(), ","))
			}
			if n.Target == TargetSQL {
				for _, e := range n.SQLExprs {
					expr := e.E.String()
					if len(expr) > 120 {
						expr = expr[:117] + "..."
					}
					fmt.Fprintf(&b, "%s  sql %s := %s\n", pad, e.Name, expr)
				}
			}
		case KindAggregate:
			if len(n.GroupBy) > 0 {
				fmt.Fprintf(&b, "%sAggregate (%d aggs) GROUP BY [%s]\n",
					pad, len(n.Aggs), strings.Join(n.GroupBy, ","))
			} else {
				fmt.Fprintf(&b, "%sAggregate (%d aggs)\n", pad, len(n.Aggs))
			}
		case KindUnion:
			fmt.Fprintf(&b, "%sUnion\n", pad)
		case KindHaving:
			fmt.Fprintf(&b, "%sHaving %s\n", pad, n.Pred)
		case KindSort:
			keys := make([]string, len(n.OrderBy))
			for i, k := range n.OrderBy {
				keys[i] = k.String()
			}
			if len(keys) > 0 {
				fmt.Fprintf(&b, "%sSort [%s]", pad, strings.Join(keys, ","))
			} else {
				fmt.Fprintf(&b, "%sLimit", pad)
			}
			if n.Limit >= 0 {
				fmt.Fprintf(&b, " limit=%d", n.Limit)
			}
			if n.Offset > 0 {
				fmt.Fprintf(&b, " offset=%d", n.Offset)
			}
			b.WriteString("\n")
		}
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(g.Root, 0)
	return b.String()
}

// Validate checks structural invariants: child counts per kind, predict
// nodes reference valid pipelines, scans resolve in the catalog.
func (g *Graph) Validate(cat Catalog) error {
	var firstErr error
	Walk(g.Root, func(n *Node) {
		if firstErr != nil {
			return
		}
		switch n.Kind {
		case KindScan:
			if len(n.Children) != 0 {
				firstErr = fmt.Errorf("ir: scan node %d has children", n.ID)
				return
			}
			if _, ok := cat.Table(n.Table); !ok {
				firstErr = fmt.Errorf("ir: unknown table %q", n.Table)
			}
		case KindFilter, KindProject, KindAggregate, KindHaving, KindSort:
			if len(n.Children) != 1 {
				firstErr = fmt.Errorf("ir: %v node %d needs 1 child, has %d", n.Kind, n.ID, len(n.Children))
				return
			}
			if n.Kind == KindHaving && n.Pred == nil {
				firstErr = fmt.Errorf("ir: having node %d has no predicate", n.ID)
				return
			}
			if n.Kind == KindSort && len(n.OrderBy) == 0 && n.Limit < 0 && n.Offset <= 0 {
				firstErr = fmt.Errorf("ir: sort node %d has neither keys, a limit nor an offset", n.ID)
			}
		case KindJoin:
			if len(n.Children) != 2 {
				firstErr = fmt.Errorf("ir: join node %d needs 2 children, has %d", n.ID, len(n.Children))
			}
		case KindPredict:
			if len(n.Children) != 1 {
				firstErr = fmt.Errorf("ir: predict node %d needs 1 child, has %d", n.ID, len(n.Children))
				return
			}
			if n.Pipeline == nil {
				firstErr = fmt.Errorf("ir: predict node %d has no pipeline", n.ID)
				return
			}
			if err := n.Pipeline.Validate(); err != nil {
				firstErr = fmt.Errorf("ir: predict node %d: %w", n.ID, err)
				return
			}
			cols, err := OutputColumns(n.Children[0], cat)
			if err != nil {
				firstErr = err
				return
			}
			have := make(map[string]bool, len(cols))
			for _, c := range cols {
				have[c] = true
			}
			for in, col := range n.InputMap {
				if n.Pipeline.Input(in) == nil {
					firstErr = fmt.Errorf("ir: predict node %d maps unknown pipeline input %q", n.ID, in)
					return
				}
				if !have[col] {
					firstErr = fmt.Errorf("ir: predict node %d input %q binds missing column %q", n.ID, in, col)
					return
				}
			}
			for _, in := range n.Pipeline.Inputs {
				if _, ok := n.InputMap[in.Name]; !ok {
					firstErr = fmt.Errorf("ir: predict node %d does not bind pipeline input %q", n.ID, in.Name)
					return
				}
			}
		case KindUnion:
			if len(n.Children) == 0 {
				firstErr = fmt.Errorf("ir: union node %d has no children", n.ID)
			}
		}
	})
	return firstErr
}
