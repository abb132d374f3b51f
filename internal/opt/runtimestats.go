package opt

import (
	"strings"
	"sync"

	"raven/internal/data"
	"raven/internal/ir"
	"raven/internal/relational"
)

// This file is the runtime half of the optimizer: plan-time cardinality
// estimation (EstimateRows) and the per-query RuntimeStats that pipeline
// breakers feed with TRUE cardinalities as they materialize intermediate
// results. The paper fixes the runtime strategy once from estimated
// statistics; RuntimeStats lets downstream plan segments re-cost
// themselves against observed numbers at the natural observation points —
// the join build, the grouped-aggregation merge and the sort merge — and
// switch strategy mid-query when the estimate was off by more than the
// configured trigger factor.

// Observation is one recorded (estimated, observed) cardinality pair from
// a pipeline-breaker boundary.
type Observation struct {
	// Point names the observation point ("join_build", "group_merge",
	// "sort_merge", "exchange_dop").
	Point string
	// Estimated is the plan-time estimate for the point's cardinality.
	Estimated float64
	// Observed is the true cardinality materialized at the breaker.
	Observed float64
}

// Switch records one mid-query strategy change taken because of the
// observations ("predict", "group_dense_to_hash", "exchange_dop").
type Switch struct {
	Point    string
	From, To string
}

// DefaultReoptFactor is the re-cost trigger: re-optimization fires when
// some observed cardinality is off from its estimate by at least this
// multiplicative factor (in either direction).
const DefaultReoptFactor = 2.0

// RuntimeStats accumulates observed cardinalities for one query execution
// and answers re-optimization questions about the remaining plan. It is
// safe for concurrent use (a nested build-side exchange observes from the
// outer exchange's Open; worker goroutines never write).
//
// It implements relational.AdaptiveContext, so the relational operators
// can record into it without importing this package.
type RuntimeStats struct {
	mu       sync.Mutex
	obs      []Observation
	switches []Switch
}

// NewRuntimeStats returns an empty per-query stats collector.
func NewRuntimeStats() *RuntimeStats {
	return &RuntimeStats{}
}

// ObserveCardinality records a true cardinality seen at a breaker.
func (rs *RuntimeStats) ObserveCardinality(point string, estimated, observed float64) {
	rs.mu.Lock()
	rs.obs = append(rs.obs, Observation{Point: point, Estimated: estimated, Observed: observed})
	rs.mu.Unlock()
}

// Observations returns a copy of the recorded observations.
func (rs *RuntimeStats) Observations() []Observation {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]Observation, len(rs.obs))
	copy(out, rs.obs)
	return out
}

// RecordSwitch records a strategy change taken at a breaker boundary.
func (rs *RuntimeStats) RecordSwitch(point, from, to string) {
	rs.mu.Lock()
	rs.switches = append(rs.switches, Switch{Point: point, From: from, To: to})
	rs.mu.Unlock()
}

// Switches returns a copy of the recorded strategy changes.
func (rs *RuntimeStats) Switches() []Switch {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]Switch, len(rs.switches))
	copy(out, rs.switches)
	return out
}

// Reoptimize scales a downstream plan-time estimate by the observed
// misestimation so far and reports whether some observation is off by
// DefaultReoptFactor. The scaling multiplies the estimate by each
// observation's observed/estimated ratio: under the foreign-key join
// assumption a build side that kept fraction f of its estimated rows
// shrinks the probe output (and everything above it) by the same f, so
// the ratio product is exactly the correction the downstream segment
// needs. Ratios are clamped to avoid division blow-ups on zero
// estimates. Only cardinality points participate (see cardinalityPoint)
// — DOP, spill accounting and limit-truncated merge counts are real
// observations but not selectivity evidence.
func (rs *RuntimeStats) Reoptimize(est float64) (adj float64, trigger bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	adj = est
	for _, o := range rs.obs {
		if !cardinalityPoint(o.Point) {
			continue
		}
		r := ratio(o.Observed, o.Estimated)
		adj *= r
		if r >= DefaultReoptFactor || 1/r >= DefaultReoptFactor {
			trigger = true
		}
	}
	return adj, trigger
}

// cardinalityPoint reports whether an observation point carries a TRUE
// cardinality usable as a selectivity correction. Excluded:
//
//   - "exchange_dop": records a DOP choice, not a row count.
//   - "sort_merge_truncated": a Sort's count of exchanged runs under a
//     LIMIT — the per-worker runs were already cut to their top-k
//     windows, so the merged count is a lower bound on the input
//     cardinality; treating it as a ratio would fabricate a downstream
//     underestimate and could mis-trigger a strategy switch.
//   - "*_spill*" points ("join_spill_bytes", "group_spill_partitions",
//     "sort_spill_runs", ...): byte/partition/run accounting with a zero
//     estimate, not cardinalities at all.
func cardinalityPoint(point string) bool {
	if point == "exchange_dop" || point == "sort_merge_truncated" {
		return false
	}
	return !strings.Contains(point, "_spill")
}

// ratio computes observed/estimated with both sides floored at one row,
// so empty observations correct downstream estimates toward (not to)
// zero and zero estimates cannot divide out.
func ratio(observed, estimated float64) float64 {
	if observed < 1 {
		observed = 1
	}
	if estimated < 1 {
		estimated = 1
	}
	return observed / estimated
}

var _ relational.AdaptiveContext = (*RuntimeStats)(nil)

// CardinalityAwareStrategy is a runtime strategy that can re-choose with
// an observed input cardinality: mid-query re-optimization calls
// ChooseWithCardinality at breaker boundaries with the corrected row
// count for the remaining predict segment.
type CardinalityAwareStrategy interface {
	RuntimeStrategy
	// ChooseWithCardinality picks a transformation knowing roughly rows
	// input rows will reach the predict operator.
	ChooseWithCardinality(f *Features, execDOP int, rows float64) Choice
}

// defaultFilterSelectivity is the textbook fallback for predicates the
// estimator cannot bound from statistics.
const defaultFilterSelectivity = 1.0 / 3

// EstimateRows estimates a node's output cardinality from catalog
// statistics: scans return table row counts; filters apply
// selectivities derived from zone-map stats (1/distinct for string
// equality, range fraction for numeric comparisons); joins assume the
// probe side hits a key-complete build (foreign-key joins, the shape of
// every prediction query in the paper's workloads); grouped aggregates
// return the capped distinct product of their keys. Estimates only need
// to be good enough that OBSERVED deviations are attributable to data,
// not to the estimator's own shape.
func EstimateRows(n *ir.Node, cat ir.Catalog) float64 {
	if n == nil {
		return 1
	}
	switch n.Kind {
	case ir.KindScan:
		if t, ok := cat.Table(n.Table); ok {
			return float64(t.NumRows())
		}
		return 1
	case ir.KindFilter:
		child := EstimateRows(n.Children[0], cat)
		return child * estimateSelectivity(n.Pred, scanBelow(n), cat)
	case ir.KindJoin:
		// Foreign-key assumption: every probe row finds its key unless
		// the build side itself was filtered down, which the ratio
		// correction in RuntimeStats.Reoptimize accounts for at run time.
		return EstimateRows(n.Children[0], cat)
	case ir.KindAggregate:
		if len(n.GroupBy) == 0 {
			return 1
		}
		child := EstimateRows(n.Children[0], cat)
		groups := 1.0
		for _, k := range n.GroupBy {
			groups *= distinctOf(k, scanBelow(n), cat)
		}
		if groups > child {
			groups = child
		}
		return groups
	case ir.KindUnion:
		var sum float64
		for _, c := range n.Children {
			sum += EstimateRows(c, cat)
		}
		return sum
	}
	if len(n.Children) > 0 {
		return EstimateRows(n.Children[0], cat)
	}
	return 1
}

// scanBelow finds the probe-most scan under a node, the table whose
// statistics qualify the node's column references.
func scanBelow(n *ir.Node) *ir.Node {
	for n != nil && n.Kind != ir.KindScan {
		if len(n.Children) == 0 {
			return nil
		}
		n = n.Children[0]
	}
	return n
}

// estimateSelectivity derives a predicate's selectivity from the scan
// table's column statistics.
func estimateSelectivity(pred relational.Expr, scan *ir.Node, cat ir.Catalog) float64 {
	switch e := pred.(type) {
	case *relational.BinOp:
		switch e.Op {
		case relational.OpAnd:
			return estimateSelectivity(e.L, scan, cat) * estimateSelectivity(e.R, scan, cat)
		case relational.OpOr:
			l := estimateSelectivity(e.L, scan, cat)
			r := estimateSelectivity(e.R, scan, cat)
			return l + r - l*r
		case relational.OpEq:
			if col, ok := columnOperand(e.L, e.R); ok {
				return 1 / distinctOf(col, scan, cat)
			}
		case relational.OpNe:
			if col, ok := columnOperand(e.L, e.R); ok {
				return 1 - 1/distinctOf(col, scan, cat)
			}
		case relational.OpLt, relational.OpLe, relational.OpGt, relational.OpGe:
			return rangeSelectivity(e, scan, cat)
		}
	case *relational.Not:
		return 1 - estimateSelectivity(e.E, scan, cat)
	case *relational.InList:
		if col, ok := e.E.(*relational.ColRef); ok {
			d := distinctOf(col.Name, scan, cat)
			sel := float64(len(e.Vals)) / d
			if sel > 1 {
				sel = 1
			}
			return sel
		}
	}
	return defaultFilterSelectivity
}

// columnOperand returns the column name of an equality comparison when
// one side is a column reference and the other a literal.
func columnOperand(l, r relational.Expr) (string, bool) {
	if c, ok := l.(*relational.ColRef); ok && isLiteral(r) {
		return c.Name, true
	}
	if c, ok := r.(*relational.ColRef); ok && isLiteral(l) {
		return c.Name, true
	}
	return "", false
}

func isLiteral(e relational.Expr) bool {
	switch e.(type) {
	case *relational.LitFloat, *relational.LitString:
		return true
	}
	return false
}

// rangeSelectivity estimates a numeric comparison against a literal as
// the fraction of the column's [min, max] range the predicate admits.
func rangeSelectivity(e *relational.BinOp, scan *ir.Node, cat ir.Catalog) float64 {
	col, lit, flipped := "", 0.0, false
	if c, ok := e.L.(*relational.ColRef); ok {
		if f, ok := e.R.(*relational.LitFloat); ok {
			col, lit = c.Name, f.V
		}
	} else if c, ok := e.R.(*relational.ColRef); ok {
		if f, ok := e.L.(*relational.LitFloat); ok {
			col, lit, flipped = c.Name, f.V, true
		}
	}
	s := colStats(col, scan, cat)
	if s == nil || !s.HasRange() || s.Max <= s.Min {
		return defaultFilterSelectivity
	}
	// Fraction of the range below the literal; the operator direction
	// (and a flipped literal-first comparison) selects which side.
	frac := (lit - s.Min) / (s.Max - s.Min)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	below := e.Op == relational.OpLt || e.Op == relational.OpLe
	if flipped {
		below = !below
	}
	if below {
		return frac
	}
	return 1 - frac
}

// distinctOf returns the column's distinct count from statistics,
// defaulting to the inverse of the fallback selectivity when unknown.
func distinctOf(col string, scan *ir.Node, cat ir.Catalog) float64 {
	s := colStats(col, scan, cat)
	if s == nil {
		return 1 / defaultFilterSelectivity
	}
	if len(s.Distinct) > 0 && !s.DistinctOverflow {
		return float64(len(s.Distinct))
	}
	if s.DistinctOverflow {
		// Capped: at least the cap, treat as high-cardinality.
		return float64(len(s.Distinct)) * 4
	}
	return 1 / defaultFilterSelectivity
}

// colStats resolves a (possibly alias-qualified) column's statistics from
// the scan's table.
func colStats(col string, scan *ir.Node, cat ir.Catalog) *data.ColStats {
	if col == "" || scan == nil {
		return nil
	}
	t, ok := cat.Table(scan.Table)
	if !ok {
		return nil
	}
	stats := t.GlobalStats()
	if s, ok := stats[col]; ok {
		return s
	}
	// Scans qualify columns with the table alias; statistics are keyed on
	// the base name.
	if i := strings.LastIndexByte(col, '.'); i >= 0 {
		if s, ok := stats[col[i+1:]]; ok {
			return s
		}
	}
	return nil
}
