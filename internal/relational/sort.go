package relational

import (
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
// The Sort breaker merges one stable sorted run per input batch — sorted
// inline, or by the PartialSort workers of an exchange, one run per morsel
// re-emitted in morsel order, which equals serial batch order — k-way,
// preferring the earlier run on equal keys. The merged permutation is
// exactly the stable sort of the whole input, so ordered results are
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

// fetchRows is the window a sort run is cut to: its top offset+limit rows
// when a limit is set (a row outside its run's window can never enter the
// global one), every row otherwise.
func fetchRows(limit, offset int) int {
	if limit >= 0 && offset > 0 {
		return limit + offset
	}
	return limit
}

// Sort is the ORDER BY pipeline breaker. It merges one sorted run per input
// batch, in stream order: each batch sorted inline under the typed
// multi-key comparator with the row-order tie-break when lowered serially,
// or sorted by the PartialSort workers of an exchange — one run per morsel,
// re-emitted in morsel order — when Parallelize moved that step below it.
// Either way the runs cover the serial batch stream in serial order and are
// each stable, so a k-way merge preferring the earlier run on equal keys
// yields exactly the stable sort of the whole input.
//
// A non-negative Limit cuts every run to its top Offset+Limit rows, found
// with a bounded heap, and stops the merge there: the rows emitted are the
// [Offset, Offset+Limit) window of the stable sort, found without ordering
// the rest. Under a budget the held runs migrate to disk once they exceed
// it and every later run is written directly; the external merge keeps the
// earlier-run tie-break, so spilled output is byte-identical too.
type Sort struct {
	Child Operator
	Keys  []SortKey
	// Limit is the row cutoff folded into the sort; negative means no
	// limit (sort everything).
	Limit int
	// Offset skips the first Offset ordered rows (the OFFSET clause).
	Offset int

	// exchanged marks a Child that is an Exchange of PartialSorts (set by
	// Parallelize): its batches arrive as sorted runs.
	exchanged bool
	stats     OpStats
	done      bool
	scratch   sortScratch
	env       *Env
}

// Columns returns the child's columns (sorting preserves the schema).
func (s *Sort) Columns() []string { return s.Child.Columns() }

// Open opens the child.
func (s *Sort) Open(env *Env) error {
	if len(s.Keys) == 0 {
		return fmt.Errorf("relational: Sort requires at least one key (use Limit)")
	}
	s.stats = OpStats{Name: "Sort(" + sortKeysString(s.Keys) + ")"}
	if s.exchanged {
		s.stats.Name = "Sort(merge " + sortKeysString(s.Keys) + ")"
	}
	s.done, s.env = false, env.orZero()
	return s.Child.Open(env)
}

// Next drains the child's runs and emits the ordered result as one batch.
// The runs are held in one table — the first batch as is, a concatenated
// copy once a second arrives — and the merged order is gathered from it
// once.
func (s *Sort) Next() (*data.Table, error) {
	defer startTimer(&s.stats)()
	if s.done {
		return nil, nil
	}
	s.done = true
	fetch := fetchRows(s.Limit, s.Offset)
	var first, buf *data.Table // the first held batch; all of them once a second arrives
	var runs []sortRun
	var es *externalSort
	var retained int64
	held := 0
	res := s.env.Budget.Reserve()
	for {
		b, err := pull(s.env.Ctx, s.Child)
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
		run := sortRun{hi: n}
		if !s.exchanged {
			if run.idx, err = s.sortBatch(b, fetch); err != nil {
				return nil, err
			}
			if len(run.idx) == 0 {
				continue
			}
		}
		if es != nil {
			// Already spilling: every run goes straight to disk.
			if err := es.addRun(run.table(b)); err != nil {
				return nil, err
			}
			continue
		}
		switch {
		case first == nil:
			first = b
		case buf == nil:
			buf = first.Clone()
			fallthrough
		default:
			if err := buf.AppendFrom(b); err != nil {
				return nil, err
			}
		}
		runs = append(runs, run.at(held))
		held += n
		retained += b.ByteSize()
		if !res.Over(retained) {
			continue
		}
		// Over budget: migrate the held runs to disk, each as its own run so
		// the merge's earlier-run tie-break is unchanged, and hand the
		// reservation back — from now on at most one arriving batch is
		// resident.
		if es, err = newExternalSort(s.env.Budget); err != nil {
			return nil, err
		}
		if buf == nil {
			buf = first
		}
		for _, r := range runs {
			if err := es.addRun(r.table(buf)); err != nil {
				return nil, err
			}
		}
		first, buf, runs, held, retained = nil, nil, nil, 0, 0
		res.Release()
	}
	if err := fault.Inject(fault.SiteSortMerge); err != nil {
		return nil, err
	}
	if es != nil {
		return es.finish(s.Keys, s.Limit, s.Offset, &s.scratch, &s.stats)
	}
	if buf == nil {
		buf = first
	}
	if buf == nil || s.Limit == 0 {
		return nil, nil
	}
	out, err := s.merge(buf, runs, fetch)
	if err != nil || out == nil {
		return nil, err
	}
	s.stats.Rows += int64(out.NumRows())
	s.stats.Batches++
	return out, nil
}

// sortBatch sorts one serial input batch into a run: its row positions in
// stable order under the comparator, cut to the top fetch rows. The
// positions are the run's own — the scratch index buffer is handed over,
// not reused — so the run outlives the next batch's sort.
func (s *Sort) sortBatch(b *data.Table, fetch int) ([]int, error) {
	cmp, err := s.scratch.comparator(b, s.Keys)
	if err != nil {
		return nil, err
	}
	idx := s.scratch.sortIndexes(b.NumRows(), fetch, cmp)
	s.scratch.idx = nil
	return idx, nil
}

// merge k-way merges the runs held in buf and emits the OFFSET/LIMIT
// window of the result: buf itself, or a view of it, when that is already
// in order, one gather otherwise.
func (s *Sort) merge(buf *data.Table, runs []sortRun, fetch int) (*data.Table, error) {
	for _, k := range s.Keys {
		if buf.Col(k.Col) == nil {
			return nil, fmt.Errorf("relational: sort key column %q missing", k.Col)
		}
	}
	want := 0
	for _, r := range runs {
		want += r.len()
	}
	if fetch >= 0 && fetch < want {
		want = fetch
	}
	var perm []int
	switch {
	case len(runs) > 1:
		var err error
		if perm, err = s.mergeRuns(buf, runs, want); err != nil {
			return nil, err
		}
	case runs[0].idx != nil:
		perm = runs[0].idx[:want]
	default:
		// One run of an exchange task is in order already.
		if s.Offset >= want {
			return nil, nil
		}
		if s.Offset == 0 && want == buf.NumRows() {
			return buf, nil
		}
		return buf.Slice(s.Offset, want), nil
	}
	if s.Offset >= len(perm) {
		return nil, nil
	}
	perm = perm[s.Offset:]
	if identityPerm(perm) {
		if len(perm) == buf.NumRows() {
			return buf, nil
		}
		return buf.Slice(0, len(perm)), nil
	}
	return buf.Gather(perm), nil
}

// mergeRuns merges the runs held in buf into the buffer rows of the first
// want merged rows. Each run is cut to want rows (a later row of a run
// cannot make the window) and adjacent runs merge pairwise, pass after
// pass, with ties going to the earlier run: that keeps the runs in stream
// order, so the result is exactly the stable sort's first-occurrence
// tie-break, in log2(runs) comparisons per row.
func (s *Sort) mergeRuns(buf *data.Table, runs []sortRun, want int) ([]int, error) {
	cmp, err := s.scratch.comparator(buf, s.Keys)
	if err != nil {
		return nil, err
	}
	// The runs laid end to end in src, run i ending at ends[i].
	n := 0
	for _, r := range runs {
		n += min(r.len(), want)
	}
	src := make([]int, 0, n)
	ends := make([]int, len(runs))
	for i, r := range runs {
		for p := 0; p < min(r.len(), want); p++ {
			src = append(src, r.row(p))
		}
		ends[i] = len(src)
	}
	dst := make([]int, len(src))
	for len(ends) > 1 {
		lo, next := 0, ends[:0]
		for i := 0; i < len(ends); i += 2 {
			mid, hi := ends[i], ends[i]
			if i+1 < len(ends) {
				hi = ends[i+1]
			}
			a, b, out := src[lo:mid], src[mid:hi], dst[lo:lo]
			for len(a) > 0 && len(b) > 0 {
				if cmp(b[0], a[0]) < 0 {
					out, b = append(out, b[0]), b[1:]
				} else {
					out, a = append(out, a[0]), a[1:]
				}
			}
			out = append(append(out, a...), b...)
			next = append(next, hi)
			lo = hi
		}
		src, dst, ends = dst, src, next
	}
	return src[:want], nil
}

// Close closes the child.
func (s *Sort) Close() error { return s.Child.Close() }

// Stats returns the operator statistics.
func (s *Sort) Stats() *OpStats { return &s.stats }

// Children returns the single child.
func (s *Sort) Children() []Operator { return []Operator{s.Child} }

// sortRun is one sorted run held in the Sort's buffer: the rows [lo, hi) in
// order or — sorted inline from a serial input batch — the rows at idx,
// already cut to the run's window.
type sortRun struct {
	lo, hi int
	idx    []int
}

func (r sortRun) len() int {
	if r.idx != nil {
		return len(r.idx)
	}
	return r.hi - r.lo
}

// row returns the buffer row at position i of the run.
func (r sortRun) row(i int) int {
	if r.idx != nil {
		return r.idx[i]
	}
	return r.lo + i
}

// at moves a run sorted from a batch of its own to that batch's place in
// the buffer, starting at row lo.
func (r sortRun) at(lo int) sortRun {
	for i := range r.idx {
		r.idx[i] += lo
	}
	r.lo, r.hi = r.lo+lo, r.hi+lo
	return r
}

// table materializes the run from the table holding it.
func (r sortRun) table(t *data.Table) *data.Table {
	if r.idx != nil {
		return t.Gather(r.idx)
	}
	return t.Slice(r.lo, r.hi)
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
	cmp, err := scratch.comparator(buf, keys)
	if err != nil {
		return nil, err
	}
	// An OFFSET widens the top-k window: the heap finds the first
	// offset+limit ordered rows and the leading offset rows are dropped
	// from the permutation.
	idx := scratch.sortIndexes(n, fetchRows(limit, offset), cmp)
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

// PartialSort is the partial step of the sort moved below an exchange: each
// Next drains its child to exhaustion (the worker chain yields the current
// morsel's batches and then reports end-of-stream), concatenates the
// batches in order, and emits them as one run, reordered under the Sort's
// comparator and tie-break and truncated to Limit (the Sort's Offset+Limit
// window). Draining structurally guarantees one internally sorted run per
// morsel even if an operator below ever emits several batches for one
// morsel — the invariant the k-way merge depends on for correctness
// (unlike the aggregate partials, where a violated boundary only perturbs
// fold order, an unsorted "run" would order rows wrongly). The exchange
// re-emits the runs in morsel order, so the Sort above sees runs covering
// the serial batch stream in serial order.
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
	buf, err := drainConcat(nil, p.Child, false)
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

// MergeSortRuns exists only so that callers written against the former
// separate merge breaker — the type switch of the frozen bench/e2e/trace.go
// — still compile: Parallelize now leaves a Sort over the exchange of
// PartialSorts, and nothing builds this type. It is a distinct type rather
// than an alias because an alias would repeat the Sort case in such a
// switch, which does not compile.
type MergeSortRuns struct{ Sort }
