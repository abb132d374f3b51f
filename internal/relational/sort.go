package relational

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"raven/internal/data"
	"raven/internal/fault"
)

// Ordered output over (grouped) prediction results: HAVING above the
// aggregation breaker, ORDER BY as a sort breaker with a typed multi-key
// comparator, and LIMIT as a row cutoff that turns the sort into a
// bounded top-k heap.
//
// Determinism contract (the ordered extension of the PR 2–4 differential
// guarantee): row order is now *semantically* part of the result, so the
// comparator is a total order — key comparison first, ties broken by the
// row's position in the serial batch stream (first-occurrence row order).
// The serial Sort stable-sorts the concatenated input under that order;
// the parallel pair sorts per-worker runs (PartialSort, one sorted run
// per morsel) and k-way merges them at the MergeSortRuns breaker,
// preferring the earlier run on equal keys. Because the Exchange re-emits
// runs in morsel order — which equals serial batch order — the merged
// permutation is exactly the serial stable sort, so ordered results are
// byte-identical at any DOP.
//
// Typed key comparators:
//
//   - Int64 compares values; Bool orders false < true.
//   - Float64 compares values with canonical NaN ordering: every NaN
//     payload collapses to one key that sorts after all numbers
//     (ascending), matching the NaN canonicalization of the join build
//     and the grouping encoder.
//   - Dictionary-encoded strings compare through a per-dictionary
//     code→rank table (rank of the code's value among the sorted distinct
//     values), computed once per dictionary and cached in the operator's
//     scratch — the row loop compares two int32 ranks, no string
//     comparison and no per-batch allocation.
//   - Raw strings fall back to strings.Compare.
//
// DESC flips the key comparison only; the row-order tie-break is never
// flipped, so ascending and descending runs of equal keys both preserve
// first-occurrence order (the stable-sort semantics users expect).

// SortKey is one ORDER BY key: an output column and a direction.
type SortKey struct {
	Col  string
	Desc bool
}

func (k SortKey) String() string {
	if k.Desc {
		return k.Col + " DESC"
	}
	return k.Col
}

func sortKeysString(keys []SortKey) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k.String()
	}
	return strings.Join(parts, ",")
}

// keyCompare is a three-way comparison of two rows of one batch.
type keyCompare func(i, j int) int

// cmpFloatKey is the canonical float ordering: NaNs collapse to a single
// key sorting after every number (ascending); -0 and +0 compare equal,
// with the row-order tie-break keeping the result deterministic.
func cmpFloatKey(a, b float64) int {
	aNaN, bNaN := math.IsNaN(a), math.IsNaN(b)
	switch {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return 1
	case bNaN:
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// sortScratch holds the per-operator (per-worker clone) reusable state of
// the sort hot path: the index buffer the per-batch permutation is built
// in and the per-dictionary code→rank tables. Not safe for concurrent
// use; every exchange worker owns its clone's scratch.
type sortScratch struct {
	idx   []int
	ranks map[*data.Dictionary][]int32
}

// dictRanks returns the code→rank table for a dictionary: rank of each
// code's value among the sorted distinct values. Built once per
// dictionary and cached, so dict-key comparisons are integer compares.
func (s *sortScratch) dictRanks(d *data.Dictionary) []int32 {
	if r, ok := s.ranks[d]; ok {
		return r
	}
	n := d.Len()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return d.Value(order[a]) < d.Value(order[b])
	})
	ranks := make([]int32, n)
	for rank, code := range order {
		ranks[code] = int32(rank)
	}
	if s.ranks == nil {
		s.ranks = make(map[*data.Dictionary][]int32, 1)
	}
	s.ranks[d] = ranks
	return ranks
}

// keyComparator builds the typed comparator for one key column.
func (s *sortScratch) keyComparator(c *data.Column) (keyCompare, error) {
	switch c.Type {
	case data.Int64:
		v := c.I64
		return func(i, j int) int {
			switch {
			case v[i] < v[j]:
				return -1
			case v[i] > v[j]:
				return 1
			}
			return 0
		}, nil
	case data.Float64:
		v := c.F64
		return func(i, j int) int { return cmpFloatKey(v[i], v[j]) }, nil
	case data.Bool:
		v := c.B
		return func(i, j int) int {
			switch {
			case !v[i] && v[j]:
				return -1
			case v[i] && !v[j]:
				return 1
			}
			return 0
		}, nil
	case data.String:
		if c.IsDict() {
			ranks := s.dictRanks(c.Dict)
			codes := c.Codes
			return func(i, j int) int {
				return int(ranks[codes[i]]) - int(ranks[codes[j]])
			}, nil
		}
		v := c.Str
		return func(i, j int) int { return strings.Compare(v[i], v[j]) }, nil
	}
	return nil, fmt.Errorf("relational: cannot sort by column %q of type %s", c.Name, c.Type)
}

// comparator builds the multi-key comparator over a batch. The returned
// function compares keys only; callers add the row-order tie-break.
func (s *sortScratch) comparator(b *data.Table, keys []SortKey) (keyCompare, error) {
	cmps := make([]keyCompare, len(keys))
	for ki, k := range keys {
		c := b.Col(k.Col)
		if c == nil {
			return nil, fmt.Errorf("relational: sort key column %q missing", k.Col)
		}
		cmp, err := s.keyComparator(c)
		if err != nil {
			return nil, err
		}
		if k.Desc {
			inner := cmp
			cmp = func(i, j int) int { return -inner(i, j) }
		}
		cmps[ki] = cmp
	}
	if len(cmps) == 1 {
		return cmps[0], nil
	}
	return func(i, j int) int {
		for _, cmp := range cmps {
			if c := cmp(i, j); c != 0 {
				return c
			}
		}
		return 0
	}, nil
}

// sortIndexes fills s.idx with the permutation ordering rows [0, n) under
// cmp with the row-index tie-break, truncated to limit rows when limit is
// in [0, n). The index buffer is reused across batches; only the heap of
// a bounded top-k and sort.Slice's internals allocate.
func (s *sortScratch) sortIndexes(n, limit int, cmp keyCompare) []int {
	less := func(a, b int) bool {
		if c := cmp(a, b); c != 0 {
			return c < 0
		}
		return a < b
	}
	if limit >= 0 && limit < n {
		return s.topK(n, limit, less)
	}
	idx := s.idxBuf(n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	return idx
}

// topK returns the row indices of the k smallest rows under the total
// order less, in ascending order — exactly the first k rows of the full
// stable sort, found in O(n log k) with a bounded max-heap instead of
// sorting everything. This is the LIMIT short-circuit: for a top-10 over
// hundreds of thousands of groups the heap never holds more than 10
// entries.
func (s *sortScratch) topK(n, k int, less func(a, b int) bool) []int {
	if k == 0 {
		return s.idxBuf(0)
	}
	h := s.idxBuf(0)
	// siftDown restores the max-heap property (root = largest under less)
	// from position i.
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(h) && less(h[big], h[l]) {
				big = l
			}
			if r < len(h) && less(h[big], h[r]) {
				big = r
			}
			if big == i {
				return
			}
			h[i], h[big] = h[big], h[i]
			i = big
		}
	}
	for i := 0; i < n; i++ {
		if len(h) < k {
			h = append(h, i)
			// Sift up.
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if !less(h[p], h[c]) {
					break
				}
				h[p], h[c] = h[c], h[p]
				c = p
			}
			continue
		}
		if less(i, h[0]) {
			h[0] = i
			siftDown(0)
		}
	}
	s.idx = h
	sort.Slice(h, func(a, b int) bool { return less(h[a], h[b]) })
	return h
}

// idxBuf returns the reusable index buffer resized to n — the single
// grow-and-reslice policy both the full sort and the top-k heap use.
func (s *sortScratch) idxBuf(n int) []int {
	if cap(s.idx) < n {
		s.idx = make([]int, n)
	}
	s.idx = s.idx[:n]
	return s.idx
}

// identityPerm reports whether idx is the identity permutation over its
// length (the batch was already sorted — emit it unchanged, zero-copy).
func identityPerm(idx []int) bool {
	for i, v := range idx {
		if v != i {
			return false
		}
	}
	return true
}

// HavingFilter keeps grouped-result rows satisfying Pred — the HAVING
// clause. It reuses the vectorized expression kernels of Filter
// (dictionary-aware string comparisons included) but is a distinct,
// deliberately serial operator: it evaluates *above* the grouped
// aggregation breaker (GroupAggregate, or MergeGroupAggregate under
// parallel execution), where group keys and aggregate outputs exist.
type HavingFilter struct {
	Child Operator
	Pred  Expr

	stats OpStats
}

// Columns returns the child's columns.
func (h *HavingFilter) Columns() []string { return h.Child.Columns() }

// Open opens the child.
func (h *HavingFilter) Open(env *Env) error {
	h.stats = OpStats{Name: "Having(" + h.Pred.String() + ")"}
	return h.Child.Open(env)
}

// Next filters the next non-empty grouped batch, with the same zero-copy
// all-true pass-through and all-false skip as Filter. A zero-row child
// batch (an empty grouped view) is skipped without evaluating row
// kernels, so empty inputs can never panic the predicate.
func (h *HavingFilter) Next() (*data.Table, error) {
	defer startTimer(&h.stats)()
	for {
		b, err := h.Child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		if b.NumRows() == 0 {
			continue
		}
		c, err := h.Pred.Eval(b)
		if err != nil {
			return nil, err
		}
		if c.Type != data.Bool {
			return nil, fmt.Errorf("relational: HAVING predicate %s is not boolean", h.Pred)
		}
		n := data.CountTrue(c.B)
		h.stats.Batches++
		if n == 0 {
			continue
		}
		h.stats.Rows += int64(n)
		if n == len(c.B) && b.NumRows() == n {
			return b, nil
		}
		return b.FilterCount(c.B, n), nil
	}
}

// Close closes the child.
func (h *HavingFilter) Close() error { return h.Child.Close() }

// Stats returns the operator statistics.
func (h *HavingFilter) Stats() *OpStats { return &h.stats }

// Children returns the single child.
func (h *HavingFilter) Children() []Operator { return []Operator{h.Child} }

// Limit emits at most N rows after skipping the first Offset rows, then
// stops pulling from its child — the LIMIT/OFFSET clauses without an
// ORDER BY. A negative N means no row cap (bare OFFSET). Because serial
// batches and the Exchange's morsel-ordered merge produce the identical
// batch stream, cutting it by position is deterministic at any DOP.
type Limit struct {
	Child  Operator
	N      int // max rows to emit; negative means unlimited
	Offset int // leading rows to skip

	stats   OpStats
	emitted int
	skipped int
}

// Columns returns the child's columns.
func (l *Limit) Columns() []string { return l.Child.Columns() }

// Open opens the child.
func (l *Limit) Open(env *Env) error {
	name := fmt.Sprintf("Limit(%d)", l.N)
	if l.Offset > 0 {
		name = fmt.Sprintf("Limit(%d offset=%d)", l.N, l.Offset)
	}
	l.stats = OpStats{Name: name}
	l.emitted = 0
	l.skipped = 0
	return l.Child.Open(env)
}

// Next forwards batches until the limit is reached, slicing the batches
// that cross the offset or the limit.
func (l *Limit) Next() (*data.Table, error) {
	defer startTimer(&l.stats)()
	if l.N >= 0 && l.emitted >= l.N {
		return nil, nil
	}
	for {
		b, err := l.Child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		n := b.NumRows()
		if n == 0 {
			continue
		}
		if skip := l.Offset - l.skipped; skip > 0 {
			if n <= skip {
				l.skipped += n
				continue
			}
			l.skipped += skip
			b = b.Slice(skip, n)
			n -= skip
		}
		if l.N >= 0 {
			if rem := l.N - l.emitted; n > rem {
				b = b.Slice(0, rem)
				n = rem
			}
		}
		l.emitted += n
		l.stats.Rows += int64(n)
		l.stats.Batches++
		return b, nil
	}
}

// Close closes the child.
func (l *Limit) Close() error { return l.Child.Close() }

// Stats returns the operator statistics.
func (l *Limit) Stats() *OpStats { return &l.stats }

// Children returns the single child.
func (l *Limit) Children() []Operator { return []Operator{l.Child} }

// Sort is the serial ORDER BY pipeline breaker: it drains its child,
// concatenates the batches and emits them reordered under the typed
// multi-key comparator, ties broken by input row order (a stable sort).
// A non-negative Limit turns the full sort into a bounded top-k heap —
// the rows emitted are exactly the first Limit rows of the stable sort,
// found without ordering the rest. The parallel rewrite replaces Sort
// with MergeSortRuns over per-worker PartialSorts (see Parallelize),
// which reproduces the same permutation byte-for-byte.
type Sort struct {
	Child Operator
	Keys  []SortKey
	// Limit is the row cutoff folded into the sort; negative means no
	// limit (sort everything).
	Limit int
	// Offset skips the first Offset ordered rows (the OFFSET clause); the
	// top-(Offset+Limit) heap finds the window without sorting the rest.
	Offset int
	// EstRows is the plan-time estimate of the input rows, reported next to
	// the true count at the sort breaker ("sort_merge") when the
	// environment observes. Under a budget the accumulated input is cut
	// into sorted runs spilled to disk and k-way merged externally,
	// reproducing the in-memory stable sort byte-for-byte.
	EstRows float64

	stats   OpStats
	done    bool
	scratch sortScratch
	env     *Env
}

// Columns returns the child's columns (sorting preserves the schema).
func (s *Sort) Columns() []string { return s.Child.Columns() }

// Open opens the child.
func (s *Sort) Open(env *Env) error {
	if len(s.Keys) == 0 {
		return fmt.Errorf("relational: Sort requires at least one key (use Limit)")
	}
	s.stats = OpStats{Name: "Sort(" + sortKeysString(s.Keys) + ")"}
	s.done, s.env = false, env.orZero()
	return s.Child.Open(env)
}

// Next drains the child and emits the ordered result as one batch.
func (s *Sort) Next() (*data.Table, error) {
	defer startTimer(&s.stats)()
	if s.done {
		return nil, nil
	}
	s.done = true
	if s.env.Budget != nil {
		return s.nextSpill()
	}
	buf, err := drainConcat(s.env.Ctx, s.Child)
	if err == nil {
		err = fault.Inject(fault.SiteSortMerge)
	}
	if err != nil {
		return nil, err
	}
	if s.env.Observe != nil {
		rows := 0
		if buf != nil {
			rows = buf.NumRows()
		}
		s.env.Observe.ObserveCardinality("sort_merge", s.EstRows, float64(rows))
	}
	if buf == nil {
		return nil, nil
	}
	out, err := sortTable(buf, s.Keys, s.Limit, s.Offset, &s.scratch)
	if err != nil || out == nil {
		return nil, err
	}
	s.stats.Rows += int64(out.NumRows())
	s.stats.Batches++
	return out, nil
}

// nextSpill is the budgeted drain: batches accumulate until the resident
// bytes exceed the budget, at which point the buffer is stable-sorted
// into a run (truncated to the top Offset+Limit rows when a limit is set
// — a row below a run's own window can never enter the global window)
// and spilled. Runs are cut at batch boundaries in input order and the
// external merge prefers earlier runs on equal keys, so the merged
// permutation equals the serial in-memory stable sort exactly.
func (s *Sort) nextSpill() (*data.Table, error) {
	fetch := s.Limit
	if s.Limit >= 0 && s.Offset > 0 {
		fetch = s.Limit + s.Offset
	}
	var es *externalSort
	var buf *data.Table
	var retained int64
	res := s.env.Budget.Reserve()
	total := 0
	for {
		if err := canceled(s.env.Ctx); err != nil {
			return nil, err
		}
		b, err := s.Child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if b.NumRows() == 0 {
			continue
		}
		total += b.NumRows()
		if buf == nil {
			buf = b.Clone()
		} else if err := buf.AppendFrom(b); err != nil {
			return nil, err
		}
		retained += b.ByteSize()
		if !res.Over(retained) {
			continue
		}
		run, err := sortTable(buf, s.Keys, fetch, 0, &s.scratch)
		if err != nil {
			return nil, err
		}
		if es == nil {
			if es, err = newExternalSort(s.env.Budget); err != nil {
				return nil, err
			}
		}
		if run != nil {
			if err := es.addRun(run); err != nil {
				return nil, err
			}
		}
		buf, retained = nil, 0
	}
	if err := fault.Inject(fault.SiteSortMerge); err != nil {
		return nil, err
	}
	if s.env.Observe != nil {
		s.env.Observe.ObserveCardinality("sort_merge", s.EstRows, float64(total))
	}
	if es == nil {
		// The input never exceeded the budget: the plain in-memory sort.
		if buf == nil {
			return nil, nil
		}
		out, err := sortTable(buf, s.Keys, s.Limit, s.Offset, &s.scratch)
		if err != nil || out == nil {
			return nil, err
		}
		s.stats.Rows += int64(out.NumRows())
		s.stats.Batches++
		return out, nil
	}
	if buf != nil {
		run, err := sortTable(buf, s.Keys, fetch, 0, &s.scratch)
		if err != nil {
			return nil, err
		}
		if run != nil {
			es.addRunMem(run)
		}
	}
	return es.finish(s.env, s.Keys, s.Limit, s.Offset, &s.scratch, &s.stats)
}

// Close closes the child.
func (s *Sort) Close() error { return s.Child.Close() }

// Stats returns the operator statistics.
func (s *Sort) Stats() *OpStats { return &s.stats }

// Children returns the single child.
func (s *Sort) Children() []Operator { return []Operator{s.Child} }

// drainConcat drains an operator into one table (nil when the child
// produced no rows), polling ctx once per batch (nil ctx skips the
// check — PartialSort runs inside exchange tasks, which poll at the
// morsel boundary already). A single batch is returned as-is — the common
// case (e.g. a Sort above an aggregation breaker) pays no copy; the clone
// happens lazily only when a second batch must be appended, since the
// first may be a zero-copy view of shared storage.
func drainConcat(ctx context.Context, child Operator) (*data.Table, error) {
	var first, merged *data.Table
	for {
		if err := canceled(ctx); err != nil {
			return nil, err
		}
		b, err := child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			if merged != nil {
				return merged, nil
			}
			return first, nil
		}
		if b.NumRows() == 0 {
			continue
		}
		switch {
		case first == nil:
			first = b
		case merged == nil:
			merged = first.Clone()
			fallthrough
		default:
			if err := merged.AppendFrom(b); err != nil {
				return nil, err
			}
		}
	}
}

// sortTable orders buf's rows under keys (row-order tie-break), skipping
// the first offset ordered rows and cutting to limit when non-negative.
// Key columns are validated before the early-outs, so a missing sort key
// errors identically for zero-row, single-row and multi-row inputs;
// beyond that check, zero- and single-row inputs return without building
// comparators or allocating — the empty-view invariant extended to
// sorting. nil is returned for an empty result (the caller emits no
// batch).
func sortTable(buf *data.Table, keys []SortKey, limit, offset int, scratch *sortScratch) (*data.Table, error) {
	for _, k := range keys {
		if buf.Col(k.Col) == nil {
			return nil, fmt.Errorf("relational: sort key column %q missing", k.Col)
		}
	}
	n := buf.NumRows()
	if n == 0 || limit == 0 || offset >= n {
		return nil, nil
	}
	if n == 1 {
		return buf, nil
	}
	// An OFFSET widens the top-k window: the heap finds the first
	// offset+limit ordered rows and the leading offset rows are dropped
	// from the permutation.
	fetch := limit
	if limit >= 0 && offset > 0 {
		fetch = limit + offset
	}
	cmp, err := scratch.comparator(buf, keys)
	if err != nil {
		return nil, err
	}
	idx := scratch.sortIndexes(n, fetch, cmp)
	if offset > 0 {
		if offset >= len(idx) {
			return nil, nil
		}
		idx = idx[offset:]
	}
	if identityPerm(idx) {
		if len(idx) < n {
			return buf.Slice(0, len(idx)), nil
		}
		return buf, nil
	}
	return buf.Gather(idx), nil
}

// PartialSort produces one sorted run per morsel inside an exchange
// worker: each Next drains its child to exhaustion (the worker chain
// yields the current morsel's batches and then reports end-of-stream),
// concatenates the batches in order, and emits them reordered under the
// same comparator and tie-break the serial Sort uses, truncated to the
// limit (a row outside its run's top-k cannot be in the global top-k).
// Draining structurally guarantees one internally sorted run per morsel
// even if an operator below ever emits several batches for one morsel —
// the invariant MergeSortRuns' k-way merge depends on for correctness
// (unlike the aggregate partials, where a violated boundary only
// perturbs fold order, an unsorted "run" would order rows wrongly). The
// exchange re-emits the runs in morsel order, so the breaker sees runs
// covering the serial batch stream in serial order.
type PartialSort struct {
	Child Operator
	Keys  []SortKey
	Limit int

	stats   OpStats
	scratch sortScratch
}

// Columns returns the child's columns.
func (p *PartialSort) Columns() []string { return p.Child.Columns() }

// Open opens the child.
func (p *PartialSort) Open(env *Env) error {
	p.stats = OpStats{Name: "PartialSort(" + sortKeysString(p.Keys) + ")"}
	return p.Child.Open(env)
}

// Next drains the child's remaining batches (one morsel's worth inside
// an exchange) and sorts them into a single run. Zero- and single-row
// inputs pass through untouched (already sorted) without building
// comparators or allocating; larger inputs reuse the worker-private
// scratch (index buffer, per-dictionary rank tables) across morsels.
func (p *PartialSort) Next() (*data.Table, error) {
	defer startTimer(&p.stats)()
	buf, err := drainConcat(nil, p.Child)
	if err != nil || buf == nil {
		return nil, err
	}
	out, err := sortTable(buf, p.Keys, p.Limit, 0, &p.scratch)
	if err != nil || out == nil {
		return nil, err
	}
	p.stats.Rows += int64(out.NumRows())
	p.stats.Batches++
	return out, nil
}

// Close closes the child.
func (p *PartialSort) Close() error { return p.Child.Close() }

// Stats returns the operator statistics.
func (p *PartialSort) Stats() *OpStats { return &p.stats }

// Children returns the single child.
func (p *PartialSort) Children() []Operator { return []Operator{p.Child} }

// CloneWorker implements ParallelOp: clones share the immutable keys and
// own a private scratch.
func (p *PartialSort) CloneWorker(child Operator) (Operator, error) {
	return &PartialSort{Child: child, Keys: p.Keys, Limit: p.Limit}, nil
}

// AbsorbWorker merges a worker clone's statistics.
func (p *PartialSort) AbsorbWorker(clone Operator) { p.stats.Absorb(clone.Stats()) }

// MergeSortRuns is the pipeline breaker above an exchange of
// PartialSorts: it collects the per-morsel sorted runs (in morsel order)
// and k-way merges them with a run heap, preferring the earlier run on
// equal keys. Runs arrive in serial batch order and are each internally
// stable, so the merged permutation equals the serial Sort's stable sort
// of the whole input — ordered parallel results are byte-identical to
// serial ones. With a limit, the merge stops after offset+limit rows and
// the leading offset rows are dropped — the serial Sort's OFFSET window.
type MergeSortRuns struct {
	Child  Operator
	Keys   []SortKey
	Limit  int
	Offset int
	// EstRows mirrors Sort, with one caveat fixed here: when a Limit is
	// set the per-worker runs arrive already truncated to their
	// top-(Offset+Limit) windows, so the merged row count is NOT the
	// operator's true input cardinality. Those observations are reported
	// under "sort_merge_truncated" (never "sort_merge"), which the
	// re-optimizer excludes from selectivity evidence. Under a budget the
	// collected runs move to disk once they exceed it and every later run
	// is written directly, with the same earlier-run-preferring external
	// merge as the in-memory heap.
	EstRows float64

	stats   OpStats
	done    bool
	scratch sortScratch
	env     *Env
}

// Columns returns the child's columns.
func (m *MergeSortRuns) Columns() []string { return m.Child.Columns() }

// Open opens the child.
func (m *MergeSortRuns) Open(env *Env) error {
	m.stats = OpStats{Name: "Sort(merge " + sortKeysString(m.Keys) + ")"}
	m.done, m.env = false, env.orZero()
	return m.Child.Open(env)
}

// Next drains the runs and emits the merged ordered result as one batch.
func (m *MergeSortRuns) Next() (*data.Table, error) {
	defer startTimer(&m.stats)()
	if m.done {
		return nil, nil
	}
	m.done = true
	// Concatenate the runs into one table (so one comparator covers every
	// row), remembering each run's [start, end) global row range. A
	// single run needs no copy at all; the clone happens lazily when a
	// second run arrives.
	var first, buf *data.Table
	var runs [][2]int
	var es *externalSort
	var retained int64
	res := m.env.Budget.Reserve()
	total := 0
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
		n := b.NumRows()
		if n == 0 {
			continue
		}
		total += n
		if es != nil {
			// Already spilling: each arriving run goes straight to disk.
			if err := es.addRun(b); err != nil {
				return nil, err
			}
			continue
		}
		if first == nil {
			first = b
			runs = append(runs, [2]int{0, n})
		} else {
			if buf == nil {
				buf = first.Clone()
			}
			start := buf.NumRows()
			if err := buf.AppendFrom(b); err != nil {
				return nil, err
			}
			runs = append(runs, [2]int{start, start + n})
		}
		retained += b.ByteSize()
		if !res.Over(retained) {
			continue
		}
		// Over budget: migrate the collected runs to disk, each as its
		// own run so the merge's earlier-run tie-break is unchanged.
		if es, err = newExternalSort(m.env.Budget); err != nil {
			return nil, err
		}
		src := buf
		if src == nil {
			src = first
		}
		for _, r := range runs {
			if err := es.addRun(src.Slice(r[0], r[1])); err != nil {
				return nil, err
			}
		}
		first, buf, runs, retained = nil, nil, nil, 0
		// Every later run goes straight to disk; the resident state is at
		// most one arriving batch, so hand the reservation back.
		res.Release()
	}
	if buf == nil {
		buf = first
	}
	if err := fault.Inject(fault.SiteSortMerge); err != nil {
		return nil, err
	}
	if m.env.Observe != nil {
		// With a Limit the runs were truncated upstream, so the merged
		// count is a lower bound, not the input cardinality — report it
		// under a point the re-optimizer knows to skip.
		point := "sort_merge"
		if m.Limit >= 0 {
			point = "sort_merge_truncated"
		}
		m.env.Observe.ObserveCardinality(point, m.EstRows, float64(total))
	}
	if es != nil {
		return es.finish(m.env, m.Keys, m.Limit, m.Offset, &m.scratch, &m.stats)
	}
	if buf == nil || m.Limit == 0 {
		return nil, nil
	}
	out, err := m.merge(buf, runs)
	if err != nil || out == nil {
		return nil, err
	}
	m.stats.Rows += int64(out.NumRows())
	m.stats.Batches++
	return out, nil
}

// merge k-way merges the runs of buf into the output permutation.
func (m *MergeSortRuns) merge(buf *data.Table, runs [][2]int) (*data.Table, error) {
	for _, k := range m.Keys {
		if buf.Col(k.Col) == nil {
			return nil, fmt.Errorf("relational: sort key column %q missing", k.Col)
		}
	}
	if len(runs) == 1 {
		// A single run is already the serial order; only the offset/limit
		// window applies.
		n := buf.NumRows()
		if m.Offset >= n {
			return nil, nil
		}
		end := n
		if m.Limit >= 0 && m.Offset+m.Limit < n {
			end = m.Offset + m.Limit
		}
		if m.Offset > 0 || end < n {
			return buf.Slice(m.Offset, end), nil
		}
		return buf, nil
	}
	cmp, err := m.scratch.comparator(buf, m.Keys)
	if err != nil {
		return nil, err
	}
	// Min-heap of run indices ordered by each run's current row; equal
	// keys prefer the earlier run — with in-run stability this reproduces
	// the global stable sort's tie-break (serial first-occurrence order).
	cursor := make([]int, len(runs))
	for i, r := range runs {
		cursor[i] = r[0]
	}
	less := func(a, b int) bool {
		if c := cmp(cursor[a], cursor[b]); c != 0 {
			return c < 0
		}
		return a < b
	}
	heap := make([]int, 0, len(runs))
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && less(heap[l], heap[small]) {
				small = l
			}
			if r < len(heap) && less(heap[r], heap[small]) {
				small = r
			}
			if small == i {
				return
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
	}
	for i := range runs {
		heap = append(heap, i)
		for c := len(heap) - 1; c > 0; {
			p := (c - 1) / 2
			if !less(heap[c], heap[p]) {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			c = p
		}
	}
	total := buf.NumRows()
	want := total
	if m.Limit >= 0 && m.Offset+m.Limit < total {
		want = m.Offset + m.Limit
	}
	perm := make([]int, 0, want)
	for len(perm) < want && len(heap) > 0 {
		run := heap[0]
		perm = append(perm, cursor[run])
		cursor[run]++
		if cursor[run] >= runs[run][1] {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	if m.Offset > 0 {
		if m.Offset >= len(perm) {
			return nil, nil
		}
		perm = perm[m.Offset:]
	}
	if len(perm) == 0 {
		return nil, nil
	}
	if identityPerm(perm) && len(perm) == total {
		return buf, nil
	}
	return buf.Gather(perm), nil
}

// Close closes the child.
func (m *MergeSortRuns) Close() error { return m.Child.Close() }

// Stats returns the operator statistics.
func (m *MergeSortRuns) Stats() *OpStats { return &m.stats }

// Children returns the single child.
func (m *MergeSortRuns) Children() []Operator { return []Operator{m.Child} }
