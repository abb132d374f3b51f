package relational

import (
	"fmt"
	"math"
	"slices"

	"raven/internal/data"
)

// Every aggregation — global and grouped, serial and exchanged, in memory
// and spilled — keeps its state in one struct-of-arrays accumulator,
// aggState: COUNT plus per-aggregate SUM/MIN/MAX float64 slices indexed by
// group id, AVG carried decomposed as SUM+COUNT and divided only when the
// result is rendered. The global aggregate is its one-group case (a
// GroupAggregate without keys, group_agg.go): it starts from the identity
// slot and folds one batch partial per input batch in stream order,
// computed inline from each batch serially or by the exchange workers
// under Parallelize. As long as batch boundaries match morsel boundaries
// (both are the profile batch size) both fold the same partials in the
// same order, so the result is bit-identical at any DOP.

// aggState is the struct-of-arrays accumulator: group g's COUNT is
// count[g], and aggregate i's SUM, MIN and MAX are sum[i][g], min[i][g]
// and max[i][g]. Its encoded form — the state columns of a partial batch
// or a grouped spill slab — is the same slices as float64 columns named by
// partialColumns, so encoding and decoding copy nothing.
type aggState struct {
	count         []float64
	sum, min, max [][]float64
}

// newAggState returns an accumulator of groups identity slots for nAggs
// aggregates: MIN and MAX start at the fold identities ±Inf, so every
// finite or infinite value replaces them.
func newAggState(nAggs, groups int) aggState {
	s := aggState{count: make([]float64, groups),
		sum: make([][]float64, nAggs), min: make([][]float64, nAggs), max: make([][]float64, nAggs)}
	for i := 0; i < nAggs; i++ {
		s.sum[i] = make([]float64, groups)
		s.min[i] = make([]float64, groups)
		s.max[i] = make([]float64, groups)
		for g := 0; g < groups; g++ {
			s.min[i][g] = math.Inf(1)
			s.max[i][g] = math.Inf(-1)
		}
	}
	return s
}

// len returns the number of groups.
func (s *aggState) len() int { return len(s.count) }

// truncate drops every group, keeping the slices' capacity.
func (s *aggState) truncate() {
	s.count = s.count[:0]
	for i := range s.sum {
		s.sum[i], s.min[i], s.max[i] = s.sum[i][:0], s.min[i][:0], s.max[i][:0]
	}
}

// push appends group r of src as a new group: the first partial of a
// group becomes its state as is.
func (s *aggState) push(src *aggState, r int) {
	s.count = append(s.count, src.count[r])
	for i := range s.sum {
		s.sum[i] = append(s.sum[i], src.sum[i][r])
		s.min[i] = append(s.min[i], src.min[i][r])
		s.max[i] = append(s.max[i], src.max[i][r])
	}
}

// foldRows folds row r of src — the next chunk of its group in stream
// order — into group gids[r], for every row in row order. A negative id
// ^g marks the first row of new group g: it becomes the group's state as
// is. New groups are numbered in row order after every existing group, so
// they are appended. Folding chunk partials in stream order is the only
// addition tree any execution mode uses, which is what makes serial,
// parallel and spilled results identical.
func (s *aggState) foldRows(gids []int32, src *aggState) {
	s.count = foldSums(s.count, src.count, gids)
	for i := range s.sum {
		s.sum[i] = foldSums(s.sum[i], src.sum[i], gids)
		s.min[i] = foldBounds(s.min[i], src.min[i], gids, false)
		s.max[i] = foldBounds(s.max[i], src.max[i], gids, true)
	}
}

func foldSums(dst, src []float64, gids []int32) []float64 {
	for r, g := range gids {
		if g < 0 {
			dst = append(dst, src[r])
			continue
		}
		dst[g] += src[r]
	}
	return dst
}

// foldBounds folds MIN (or MAX, when isMax) slots: a value replaces the
// slot only when strictly smaller (larger), so NaN never does.
func foldBounds(dst, src []float64, gids []int32, isMax bool) []float64 {
	for r, g := range gids {
		switch v := src[r]; {
		case g < 0:
			dst = append(dst, v)
		case isMax && v > dst[g], !isMax && v < dst[g]:
			dst[g] = v
		}
	}
	return dst
}

// addRows folds row i of a batch into group gids[i], for every row in row
// order: COUNT, then each aggregate's column in turn (nil for COUNT, which
// reads no column). Each group sees its rows in row order with the same
// operations whichever grouping path computed gids, so every path is
// bit-identical.
func (s *aggState) addRows(gids []int32, aggCols []*data.Column) {
	for _, g := range gids {
		s.count[g]++
	}
	for i, c := range aggCols {
		switch {
		case c == nil:
		case c.Type == data.Float64:
			addValues(c.F64, gids, s.sum[i], s.min[i], s.max[i])
		case c.Type == data.Int64:
			addValues(c.I64, gids, s.sum[i], s.min[i], s.max[i])
		default:
			for r, g := range gids {
				addValue(c.AsFloat(r), int(g), s.sum[i], s.min[i], s.max[i])
			}
		}
	}
}

// addValues folds vals[r] into group gids[r] of one aggregate's slices.
func addValues[T int64 | float64](vals []T, gids []int32, sum, lo, hi []float64) {
	for r, g := range gids {
		addValue(float64(vals[r]), int(g), sum, lo, hi)
	}
}

func addValue(v float64, g int, sum, lo, hi []float64) {
	sum[g] += v
	if v < lo[g] {
		lo[g] = v
	}
	if v > hi[g] {
		hi[g] = v
	}
}

// results renders one float column per aggregate, dividing AVG's SUM by
// COUNT only here.
func (s *aggState) results(aggs []AggSpec) []*data.Column {
	cols := make([]*data.Column, len(aggs))
	for i, g := range aggs {
		var vals []float64
		switch g.Fn {
		case AggCount:
			vals = slices.Clone(s.count)
		case AggSum:
			vals = slices.Clone(s.sum[i])
		case AggAvg:
			vals = make([]float64, len(s.count))
			for r, n := range s.count {
				if n > 0 {
					vals[r] = s.sum[i][r] / n
				}
			}
		case AggMin:
			vals = slices.Clone(s.min[i])
		case AggMax:
			vals = slices.Clone(s.max[i])
		}
		cols[i] = data.NewFloat(g.As, vals)
	}
	return cols
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

// columns is the encoded form: the accumulator's own slices as the state
// columns, in partialColumns order — an exact float64 round trip, so
// merging loses no precision. Partial batches and grouped spill slabs both
// carry them.
func (s *aggState) columns() []*data.Column {
	names := partialColumns(len(s.sum))
	cols := make([]*data.Column, 0, len(names))
	cols = append(cols, data.NewFloat(names[0], s.count))
	for i := range s.sum {
		cols = append(cols,
			data.NewFloat(names[1+3*i], s.sum[i]),
			data.NewFloat(names[2+3*i], s.min[i]),
			data.NewFloat(names[3+3*i], s.max[i]))
	}
	return cols
}

// stateOf reads the encoded state columns of a partial batch or spill
// slab of nAggs aggregates back as an accumulator over the same slices.
func stateOf(b *data.Table, nAggs int) (aggState, error) {
	names := partialColumns(nAggs)
	vals := make([][]float64, len(names))
	for j, name := range names {
		c := b.Col(name)
		if c == nil {
			return aggState{}, fmt.Errorf("relational: partial aggregate batch lacks column %q", name)
		}
		vals[j] = c.F64
	}
	s := aggState{count: vals[0],
		sum: make([][]float64, nAggs), min: make([][]float64, nAggs), max: make([][]float64, nAggs)}
	for i := 0; i < nAggs; i++ {
		s.sum[i], s.min[i], s.max[i] = vals[1+3*i], vals[2+3*i], vals[3+3*i]
	}
	return s, nil
}

// Aggregate, PartialAggregate and MergeAggregate exist only so that callers
// written against the former separate global-aggregation operators — the
// type switch of the frozen bench/e2e/trace.go — still compile: the global
// aggregate is now the zero-key GroupAggregate (over an exchange of
// zero-key PartialGroupAggregates under Parallelize), and nothing builds
// these types. Each is a distinct type rather than an alias because an
// alias would repeat the GroupAggregate case in such a switch, which does
// not compile.
type (
	Aggregate        struct{ GroupAggregate }
	PartialAggregate struct{ PartialGroupAggregate }
	MergeAggregate   struct{ GroupAggregate }
)
