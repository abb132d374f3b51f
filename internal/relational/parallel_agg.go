package relational

import (
	"fmt"
	"math"

	"raven/internal/data"
)

// Global aggregation is one breaker folding one partial accumulator per
// input batch — COUNT plus per-aggregate SUM/MIN/MAX, AVG carried
// decomposed as SUM+COUNT — in stream order. Serially the Aggregate computes
// each partial inline from its input batch; under Parallelize the
// PartialAggregate workers of an exchange compute them and encode each as a
// one-row table, which the Aggregate above reads back in morsel order. As
// long as batch boundaries match morsel boundaries (both are the profile
// batch size) both fold the same partials in the same order, so the result
// is bit-identical at any DOP.

// aggPartial is the mergeable accumulator state of a global aggregation
// over one stream chunk (a batch, a morsel, or the whole input).
type aggPartial struct {
	count            float64
	sums, mins, maxs []float64
}

// newAggPartial returns the empty accumulator: MIN and MAX start at the
// fold identities ±Inf, so every finite or infinite value replaces them.
func newAggPartial(n int) *aggPartial {
	p := &aggPartial{
		sums: make([]float64, n),
		mins: make([]float64, n),
		maxs: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		p.mins[i] = math.Inf(1)
		p.maxs[i] = math.Inf(-1)
	}
	return p
}

// accumulateBatch computes the partial accumulator for one batch.
func accumulateBatch(b *data.Table, aggs []AggSpec) (*aggPartial, error) {
	p := newAggPartial(len(aggs))
	p.count = float64(b.NumRows())
	for gi, g := range aggs {
		if g.Fn == AggCount {
			continue
		}
		c := b.Col(g.Col)
		if c == nil {
			return nil, fmt.Errorf("relational: aggregate column %q missing", g.Col)
		}
		for i := 0; i < c.Len(); i++ {
			v := c.AsFloat(i)
			p.sums[gi] += v
			if v < p.mins[gi] {
				p.mins[gi] = v
			}
			if v > p.maxs[gi] {
				p.maxs[gi] = v
			}
		}
	}
	return p, nil
}

// fold merges q — the next chunk in stream order — into p. Folding chunk
// partials in stream order is the only addition tree either execution
// mode uses, which is what makes serial and parallel results identical.
func (p *aggPartial) fold(q *aggPartial) {
	p.count += q.count
	for i := range p.sums {
		p.sums[i] += q.sums[i]
		if q.mins[i] < p.mins[i] {
			p.mins[i] = q.mins[i]
		}
		if q.maxs[i] > p.maxs[i] {
			p.maxs[i] = q.maxs[i]
		}
	}
}

// finalize renders the accumulator as the single-row aggregate result,
// dividing AVG's SUM by COUNT only here.
func (p *aggPartial) finalize(aggs []AggSpec) (*data.Table, error) {
	out, err := data.NewTable("agg")
	if err != nil {
		return nil, err
	}
	for gi, g := range aggs {
		var v float64
		switch g.Fn {
		case AggCount:
			v = p.count
		case AggSum:
			v = p.sums[gi]
		case AggAvg:
			if p.count > 0 {
				v = p.sums[gi] / p.count
			}
		case AggMin:
			v = p.mins[gi]
		case AggMax:
			v = p.maxs[gi]
		}
		if err := out.AddColumn(data.NewFloat(g.As, []float64{v})); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// partialColumns names the encoded accumulator columns for n aggregates.
func partialColumns(n int) []string {
	out := make([]string, 0, 1+3*n)
	out = append(out, "__count")
	for i := 0; i < n; i++ {
		out = append(out,
			fmt.Sprintf("__sum%d", i),
			fmt.Sprintf("__min%d", i),
			fmt.Sprintf("__max%d", i))
	}
	return out
}

// encodePartials renders accumulators as the encoded state columns, one row
// per accumulator — an exact float64 round trip, so merging loses no
// precision. Partial batches and grouped spill slabs both carry them.
func encodePartials(parts []*aggPartial, nAggs int) []*data.Column {
	state := make([][]float64, 1+3*nAggs)
	for j := range state {
		state[j] = make([]float64, len(parts))
	}
	for r, p := range parts {
		state[0][r] = p.count
		for i := range p.sums {
			state[1+3*i][r], state[2+3*i][r], state[3+3*i][r] = p.sums[i], p.mins[i], p.maxs[i]
		}
	}
	names := partialColumns(nAggs)
	cols := make([]*data.Column, len(names))
	for j, vals := range state {
		cols[j] = data.NewFloat(names[j], vals)
	}
	return cols
}

// partialCols are the state columns of one encoded partial batch, in
// partialColumns order, resolved once per batch so that decoding a row
// reads slices, not column names.
type partialCols [][]float64

// resolvePartials looks up the state columns named by names (partialColumns
// of the aggregate count) in b.
func resolvePartials(b *data.Table, names []string) (partialCols, error) {
	pc := make(partialCols, len(names))
	for i, name := range names {
		c := b.Col(name)
		if c == nil {
			return nil, fmt.Errorf("relational: partial aggregate batch lacks column %q", name)
		}
		pc[i] = c.F64
	}
	return pc, nil
}

// row decodes row r into a fresh accumulator.
func (pc partialCols) row(r int) *aggPartial {
	p := newAggPartial((len(pc) - 1) / 3)
	p.count = pc[0][r]
	for i := range p.sums {
		p.sums[i] = pc[1+3*i][r]
		p.mins[i] = pc[2+3*i][r]
		p.maxs[i] = pc[3+3*i][r]
	}
	return p
}

// PartialAggregate is the partial step of the global aggregation moved
// below an exchange: each worker turns every input batch into one encoded
// accumulator row, and the exchange re-emits those rows in morsel order
// for the Aggregate above to fold.
type PartialAggregate struct {
	Child Operator
	Aggs  []AggSpec

	stats OpStats
}

// Columns returns the encoded accumulator column names.
func (a *PartialAggregate) Columns() []string { return partialColumns(len(a.Aggs)) }

// Open opens the child.
func (a *PartialAggregate) Open(env *Env) error {
	a.stats = OpStats{Name: "PartialAggregate"}
	return a.Child.Open(env)
}

// Next folds the next child batch into a one-row partial.
func (a *PartialAggregate) Next() (*data.Table, error) {
	defer startTimer(&a.stats)()
	b, err := a.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	p, err := accumulateBatch(b, a.Aggs)
	if err != nil {
		return nil, err
	}
	out, err := data.NewTable("partial", encodePartials([]*aggPartial{p}, len(a.Aggs))...)
	if err != nil {
		return nil, err
	}
	a.stats.Rows++
	a.stats.Batches++
	return out, nil
}

// Close closes the child.
func (a *PartialAggregate) Close() error { return a.Child.Close() }

// Stats returns the operator statistics.
func (a *PartialAggregate) Stats() *OpStats { return &a.stats }

// Children returns the single child.
func (a *PartialAggregate) Children() []Operator { return []Operator{a.Child} }

// CloneWorker implements ParallelOp: clones share the (immutable) specs.
func (a *PartialAggregate) CloneWorker(child Operator) (Operator, error) {
	return &PartialAggregate{Child: child, Aggs: a.Aggs}, nil
}

// AbsorbWorker merges a worker clone's statistics.
func (a *PartialAggregate) AbsorbWorker(clone Operator) { a.stats.Absorb(clone.Stats()) }

// MergeAggregate exists only so that callers written against the former
// separate merge breaker — the type switch of the frozen bench/e2e/trace.go
// — still compile: Parallelize now leaves an Aggregate over the exchange of
// PartialAggregates, and nothing builds this type. It is a distinct type
// rather than an alias because an alias would repeat the Aggregate case in
// such a switch, which does not compile.
type MergeAggregate struct{ Aggregate }
