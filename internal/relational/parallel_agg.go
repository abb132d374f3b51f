package relational

import (
	"fmt"

	"raven/internal/data"
)

// This file extends morsel-driven parallelism across the aggregation
// pipeline breaker. Exchange workers run PartialAggregate, which folds
// each batch into a mergeable accumulator row (COUNT plus per-aggregate
// SUM/MIN/MAX — AVG is carried decomposed as SUM+COUNT); MergeAggregate
// above the exchange folds the partial rows in morsel order and emits the
// final single-row result. The serial Aggregate uses the same
// batch-partial-then-fold arithmetic, so as long as batch boundaries
// match morsel boundaries (both are the profile batch size) the parallel
// result is bit-identical to the serial one.

// aggPartial is the mergeable accumulator state of a global aggregation
// over one stream chunk (a batch, a morsel, or the whole input).
type aggPartial struct {
	count            float64
	sums, mins, maxs []float64
}

func newAggPartial(n int) *aggPartial {
	p := &aggPartial{
		sums: make([]float64, n),
		mins: make([]float64, n),
		maxs: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		p.mins[i] = 1e308
		p.maxs[i] = -1e308
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

// encode renders the accumulator as a one-row table of float columns
// (an exact float64 round trip, so merging loses no precision).
func (p *aggPartial) encode() (*data.Table, error) {
	n := len(p.sums)
	cols := make([]*data.Column, 0, 1+3*n)
	cols = append(cols, data.NewFloat("__count", []float64{p.count}))
	for i := 0; i < n; i++ {
		cols = append(cols,
			data.NewFloat(fmt.Sprintf("__sum%d", i), []float64{p.sums[i]}),
			data.NewFloat(fmt.Sprintf("__min%d", i), []float64{p.mins[i]}),
			data.NewFloat(fmt.Sprintf("__max%d", i), []float64{p.maxs[i]}))
	}
	return data.NewTable("partial", cols...)
}

// decodePartialRow reads row r of an encoded partial batch back into an
// accumulator with n aggregates.
func decodePartialRow(b *data.Table, r, n int) (*aggPartial, error) {
	p := newAggPartial(n)
	read := func(name string) (float64, error) {
		c := b.Col(name)
		if c == nil {
			return 0, fmt.Errorf("relational: partial aggregate batch lacks column %q", name)
		}
		return c.F64[r], nil
	}
	var err error
	if p.count, err = read("__count"); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if p.sums[i], err = read(fmt.Sprintf("__sum%d", i)); err != nil {
			return nil, err
		}
		if p.mins[i], err = read(fmt.Sprintf("__min%d", i)); err != nil {
			return nil, err
		}
		if p.maxs[i], err = read(fmt.Sprintf("__max%d", i)); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// PartialAggregate computes per-batch aggregate partials inside an
// exchange worker: each input batch becomes one encoded accumulator row.
// The exchange merges those rows in morsel order, so the MergeAggregate
// above folds them in exactly the serial batch order.
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
	out, err := p.encode()
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

// MergeAggregate is the pipeline breaker above an exchange of
// PartialAggregates: it folds the partial rows in stream (= morsel)
// order and emits the final single-row aggregate.
type MergeAggregate struct {
	Child Operator
	Aggs  []AggSpec

	stats OpStats
	done  bool
	env   *Env
}

// Columns returns the aggregate output names.
func (m *MergeAggregate) Columns() []string {
	out := make([]string, len(m.Aggs))
	for i, g := range m.Aggs {
		out[i] = g.As
	}
	return out
}

// Open opens the child.
func (m *MergeAggregate) Open(env *Env) error {
	m.stats = OpStats{Name: "Aggregate(merge)"}
	m.done, m.env = false, env.orZero()
	return m.Child.Open(env)
}

// Next drains the child's partial rows and emits the merged result.
func (m *MergeAggregate) Next() (*data.Table, error) {
	defer startTimer(&m.stats)()
	if m.done {
		return nil, nil
	}
	m.done = true
	acc := newAggPartial(len(m.Aggs))
	for {
		if err := canceled(m.env.Ctx); err != nil {
			return nil, err
		}
		b, err := m.Child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for r := 0; r < b.NumRows(); r++ {
			p, err := decodePartialRow(b, r, len(m.Aggs))
			if err != nil {
				return nil, err
			}
			acc.fold(p)
		}
	}
	out, err := acc.finalize(m.Aggs)
	if err != nil {
		return nil, err
	}
	m.stats.Rows++
	m.stats.Batches++
	return out, nil
}

// Close closes the child.
func (m *MergeAggregate) Close() error { return m.Child.Close() }

// Stats returns the operator statistics.
func (m *MergeAggregate) Stats() *OpStats { return &m.stats }

// Children returns the single child.
func (m *MergeAggregate) Children() []Operator { return []Operator{m.Child} }
