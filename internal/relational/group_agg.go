package relational

import (
	"encoding/binary"
	"fmt"
	"slices"

	"raven/internal/data"
	"raven/internal/fault"
)

// Aggregation — global and grouped (GROUP BY) — is one breaker,
// GroupAggregate; the global aggregate is its zero-key case. Both run the
// same per-batch partial + in-order fold discipline over the same
// struct-of-arrays accumulator (aggState) indexed by group id:
//
//   - every input batch is grouped into a batch partial: its key columns
//     gathered at each group's first row, in first-occurrence row order,
//     plus an aggState holding each group's COUNT/SUM/MIN/MAX (AVG
//     decomposed into SUM+COUNT) — inline in the GroupAggregate breaker,
//     or in the PartialGroupAggregate workers of an exchange, which emit it
//     as a table whose state columns are the accumulator's slices. Without
//     keys a batch is one group, present even when the batch is empty;
//   - the breaker's groupedMerge folds batch partials by group key VALUE
//     into one global aggState in stream order (serial: batch order;
//     exchanged: morsel order, which the Exchange guarantees equals serial
//     batch order). A group's first partial becomes its state as is; later
//     ones fold into it. Without keys the merge holds one identity group
//     from the start and folds every partial into it, so empty input still
//     yields the one identity row.
//
// Because both placements of the partial step run the identical per-batch
// accumulation and the breaker the identical value-keyed fold — and the
// encoded partials round-trip exactly through float64 columns — results
// are byte-identical at any DOP and under either string representation.
// Output row order is deterministic: first occurrence of the group key in
// serial batch order.
//
// A batch is grouped in two passes: a group id per row, then a
// column-at-a-time fold of each aggregate's values into its group's slots
// (aggState.addRows). The group ids come from one of two paths, chosen
// per batch from the key column alone:
//
//   - dense: a single dictionary-encoded key column of at most
//     DefaultDenseGroupLimit entries indexes a per-operator (per-worker,
//     under an Exchange) dense code→group array — no hashing at all. The
//     array is reused across batches and reset via the touched-code list.
//   - hash: a keyIndex on the key value. A single int64, float64 or bool
//     key probes a map[uint64]int32 on its value (floats through floatKey,
//     which collapses NaNs); a single string key probes a map[string]int32
//     on its value, whatever the representation (dictionary codes are never
//     compared across dictionaries); only multi-column keys are encoded to
//     canonical bytes (self-delimiting per type) probing a
//     map[string]int32.
//
// The merge probes the same keyIndex, then folds the partial's state
// columns one at a time (aggState.foldRows). Both paths visit rows in
// batch order and update per-group state with the same operations, so
// dense and hash grouping are bit-identical.

// DefaultDenseGroupLimit is the largest dictionary cardinality the dense
// code→group grouping path is used for (the per-worker dense array costs
// 4 bytes per dictionary entry).
const DefaultDenseGroupLimit = 4096

// keyColumns resolves the named key columns of b.
func keyColumns(b *data.Table, keys []string) ([]*data.Column, error) {
	cols := make([]*data.Column, len(keys))
	for i, k := range keys {
		if cols[i] = b.Col(k); cols[i] == nil {
			return nil, fmt.Errorf("relational: group key column %q missing", k)
		}
	}
	return cols, nil
}

// keyWord returns an int64, float64 or bool key at row r as an index word.
func keyWord(c *data.Column, r int) uint64 {
	switch c.Type {
	case data.Int64:
		return uint64(c.I64[r])
	case data.Float64:
		return floatKey(c.F64[r])
	}
	if c.B[r] {
		return 1
	}
	return 0
}

// appendKey appends row r's canonical key bytes to dst: int64 and float
// words as 8 little-endian bytes, bools as one byte, strings by value with
// a length prefix. Every encoding is self-delimiting, so a key tuple's
// concatenation is unambiguous.
func appendKey(cols []*data.Column, r int, dst []byte) []byte {
	for _, c := range cols {
		switch c.Type {
		case data.Bool:
			dst = append(dst, byte(keyWord(c, r)))
		case data.String:
			s := c.AsString(r)
			dst = append(binary.AppendUvarint(dst, uint64(len(s))), s...)
		default:
			dst = binary.LittleEndian.AppendUint64(dst, keyWord(c, r))
		}
	}
	return dst
}

// keyIndex maps group key values to group ids: a single int64, float64 or
// bool key by its word in words, a single string key by value and a key
// tuple by its canonical bytes in strs.
type keyIndex struct {
	words map[uint64]int32
	strs  map[string]int32
	buf   []byte
}

// id returns the group of the key at row r of cols, entering the key as
// group next when it is absent; added reports whether it was.
func (x *keyIndex) id(cols []*data.Column, r int, next int32) (g int32, added bool) {
	if x.words == nil {
		x.words, x.strs = make(map[uint64]int32), make(map[string]int32)
	}
	var ok bool
	switch c := cols[0]; {
	case len(cols) > 1:
		x.buf = appendKey(cols, r, x.buf[:0])
		if g, ok = x.strs[string(x.buf)]; !ok {
			x.strs[string(x.buf)] = next
		}
	case c.Type == data.String:
		s := c.AsString(r)
		if g, ok = x.strs[s]; !ok {
			x.strs[s] = next
		}
	default:
		w := keyWord(c, r)
		if g, ok = x.words[w]; !ok {
			x.words[w] = next
		}
	}
	if ok {
		return g, false
	}
	return next, true
}

// emptyLike returns empty raw columns named and typed like cols, to which
// rows are appended (Column.AppendRow): groups' first-occurrence key
// values, or the merged rows of a spilled result. String keys come out as
// raw strings whatever the input representation, so raw and
// dictionary-encoded runs produce identical output columns.
func emptyLike(cols []*data.Column) []*data.Column {
	out := make([]*data.Column, len(cols))
	for i, c := range cols {
		out[i] = &data.Column{Name: c.Name, Type: c.Type}
	}
	return out
}

// groupScratch holds the per-operator (per-worker) reusable state of the
// batch accumulation hot path: the dense code→group array keyed on the
// dictionary identity, the hash path's key index, the per-row group ids
// and resolved column slices. It is not safe for concurrent use; exchange
// workers each own a clone's scratch.
type groupScratch struct {
	dict    *data.Dictionary
	denseG  []int32 // code → group index + 1; 0 = unseen this batch
	idx     keyIndex
	gids    []int32
	first   []int
	aggCols []*data.Column
}

// resolveAggCols caches the per-batch aggregate input columns (nil slots
// for COUNT, which reads no column).
func (s *groupScratch) resolveAggCols(b *data.Table, aggs []AggSpec) error {
	s.aggCols = slices.Grow(s.aggCols[:0], len(aggs))[:len(aggs)]
	for gi, g := range aggs {
		if g.Fn == AggCount {
			s.aggCols[gi] = nil
			continue
		}
		c := b.Col(g.Col)
		if c == nil {
			return fmt.Errorf("relational: aggregate column %q missing", g.Col)
		}
		s.aggCols[gi] = c
	}
	return nil
}

// denseKey reports whether the batch's key columns qualify for the dense
// grouping path: exactly one dictionary-encoded key of at most
// DefaultDenseGroupLimit entries.
func denseKey(keyCols []*data.Column) (*data.Column, bool) {
	if len(keyCols) != 1 {
		return nil, false
	}
	c := keyCols[0]
	if c.IsDict() && c.Dict.Len() <= DefaultDenseGroupLimit {
		return c, true
	}
	return nil, false
}

// partial computes one batch's partial table: the key columns gathered at
// each group's first row (keeping their representation), then the groups'
// accumulator as its state columns, in first-occurrence row order. Without
// keys it is a global aggregation's one-row partial. The serial breaker
// folds exactly the partial an exchange worker emits.
func (s *groupScratch) partial(b *data.Table, keys []string, aggs []AggSpec) (*data.Table, error) {
	keyCols, err := keyColumns(b, keys)
	if err != nil {
		return nil, err
	}
	if err := s.resolveAggCols(b, aggs); err != nil {
		return nil, err
	}
	n := b.NumRows()
	s.gids = slices.Grow(s.gids[:0], n)[:n]
	s.first = s.first[:0]
	if kc, ok := denseKey(keyCols); len(keys) == 0 {
		// A global aggregation: one group of every row, present even
		// when the batch is empty.
		clear(s.gids)
		s.first = append(s.first, 0)
	} else if ok {
		// Dense path: the shared dictionary indexes a reusable code→group
		// array. A dictionary switch (new table, re-encoded column)
		// reinitializes it; otherwise only the codes touched by the
		// previous batch are cleared.
		if s.dict != kc.Dict || len(s.denseG) < kc.Dict.Len() {
			s.dict = kc.Dict
			s.denseG = make([]int32, kc.Dict.Len())
		}
		codes := kc.Codes
		for i := 0; i < n; i++ {
			code := codes[i]
			gi := s.denseG[code]
			if gi == 0 {
				s.first = append(s.first, i)
				gi = int32(len(s.first))
				s.denseG[code] = gi
			}
			s.gids[i] = gi - 1
		}
		for _, r := range s.first {
			s.denseG[codes[r]] = 0
		}
	} else {
		clear(s.idx.words)
		clear(s.idx.strs)
		for i := 0; i < n; i++ {
			g, added := s.idx.id(keyCols, i, int32(len(s.first)))
			if added {
				s.first = append(s.first, i)
			}
			s.gids[i] = g
		}
	}
	st := newAggState(len(aggs), len(s.first))
	st.addRows(s.gids, s.aggCols)
	for i, kc := range keyCols {
		keyCols[i] = kc.Gather(s.first)
	}
	return data.NewTable("partial", append(keyCols, st.columns()...)...)
}

// groupedMerge is the global grouped accumulator the breaker folds batch
// partials into. Groups are keyed by key VALUE — never by dictionary code —
// so partials carrying mismatched dictionaries or raw strings merge
// correctly, and numbered (their aggState slot) by first occurrence in
// fold order.
type groupedMerge struct {
	keyNames []string
	aggs     []AggSpec

	keys  []*data.Column // first-occurrence key values; typed by the first fold
	state aggState
	idx   keyIndex
	gids  []int32 // per-row group ids of the fold in progress
	buf   []byte

	// budget, when set, caps the resident group state: once retained
	// exceeds it, the accumulator migrates to grace-hash partition spill
	// (group_spill.go) and all later folds route there. seq numbers every
	// folded row; firstSeq remembers each resident group's first one so
	// the spilled output can be restored to first-occurrence order.
	budget   *MemBudget
	res      *Reservation
	seq      float64
	firstSeq []float64
	retained int64
	spill    *groupSpill
}

// newGroupedMerge returns an empty accumulator — with no keys, one holding
// the global aggregation's identity group.
func newGroupedMerge(keyNames []string, aggs []AggSpec) *groupedMerge {
	groups := 0
	if len(keyNames) == 0 {
		groups = 1
	}
	return &groupedMerge{keyNames: keyNames, aggs: aggs, state: newAggState(len(aggs), groups)}
}

// groupStateBytes approximates the resident cost of one group beyond its
// canonical key bytes (which stand in for the key column's copy of the
// key: 8 bytes for an int64 or float64 key, a string's bytes plus its
// length prefix). With n aggregates it is
//
//	8·(1+3n)  aggState: COUNT, then SUM, MIN and MAX per aggregate
//	+ 8       firstSeq
//	+ 32      keyIndex slot: a 12–20-byte key/value slot rounded to 16–24
//	          bytes plus one control byte, at the map's 7/16–7/8 load
//
// = 48 + 24n bytes: 72 for the one AVG of a per-search ranking. Slices
// grow by doubling, so capacity can run up to 2× the counted lengths.
func groupStateBytes(nAggs int) int64 { return 48 + 24*int64(nAggs) }

// fold merges an encoded grouped partial in row order: group r's key at
// row r of keyCols, its state at row r of src. seqs, when non-nil, are the
// rows' fold sequence numbers (a spill slab's __seq column); otherwise the
// rows continue the merge's own numbering. Without keys every row folds
// into the one group, whose state reserves no budget.
func (m *groupedMerge) fold(keyCols []*data.Column, src *aggState, seqs []float64) error {
	n := src.len()
	if n == 0 {
		return nil
	}
	if len(m.keyNames) == 0 {
		m.gids = slices.Grow(m.gids[:0], n)[:n]
		clear(m.gids)
		m.state.foldRows(m.gids, src)
		return nil
	}
	if m.keys == nil {
		m.keys = emptyLike(keyCols)
	}
	for i, c := range keyCols {
		if want := m.keys[i].Type; c.Type != want {
			return fmt.Errorf("relational: group key %q changed type from %s to %s", m.keyNames[i], want, c.Type)
		}
	}
	seqOf := func(r int) float64 {
		if seqs != nil {
			return seqs[r]
		}
		return m.seq + float64(r)
	}
	r := 0
	if m.spill == nil {
		var over bool
		var err error
		if r, over, err = m.foldResident(keyCols, src, seqOf); err != nil {
			return err
		}
		if over {
			if err := m.startSpill(); err != nil {
				return err
			}
		}
	}
	for ; r < n; r++ {
		if err := m.spill.add(keyCols, r, src, seqOf(r)); err != nil {
			return err
		}
	}
	m.seq += float64(n)
	return nil
}

// foldResident folds the rows of src into the resident groups in two
// passes: the key index assigns every row its group (entering new keys),
// then the state columns fold one at a time. When the budget denies a new
// group's bytes it stops after that row and reports over; it returns the
// number of rows folded.
func (m *groupedMerge) foldResident(keyCols []*data.Column, src *aggState, seqOf func(int) float64) (int, bool, error) {
	n := src.len()
	gids := m.gids[:0]
	end, over := n, false
	for r := 0; r < n; r++ {
		g, added := m.idx.id(keyCols, r, int32(len(m.firstSeq)))
		if !added {
			gids = append(gids, g)
			continue
		}
		gids = append(gids, ^g)
		for i, c := range m.keys {
			if err := c.AppendRow(keyCols[i], r); err != nil {
				return 0, false, err
			}
		}
		m.firstSeq = append(m.firstSeq, seqOf(r))
		if m.budget == nil {
			continue
		}
		m.buf = appendKey(keyCols, r, m.buf[:0])
		m.retained += int64(len(m.buf)) + groupStateBytes(len(m.aggs))
		if m.res == nil {
			m.res = m.budget.Reserve()
		}
		if m.res.Over(m.retained) {
			end, over = r+1, true
			break
		}
	}
	m.state.foldRows(gids, src)
	m.gids = gids
	return end, over, nil
}

// foldPartials merges an encoded grouped-partial batch — a
// PartialGroupAggregate output or a grouped spill slab (with its seqs) —
// row by row, reading its state columns in place.
func (m *groupedMerge) foldPartials(b *data.Table, seqs []float64) error {
	keyCols, err := keyColumns(b, m.keyNames)
	if err != nil {
		return err
	}
	st, err := stateOf(b, len(m.aggs))
	if err != nil {
		return err
	}
	return m.fold(keyCols, &st, seqs)
}

// startSpill switches the accumulator to grace-hash spill, migrating the
// resident groups (in first-occurrence order, carrying their original
// first-occurrence sequence numbers) into the partitions. The migrated
// row of a group holds its full accumulated prefix state; later partials
// of the same key fold after it in stream order, so the re-fold
// reproduces the serial fold exactly.
func (m *groupedMerge) startSpill() error {
	sp, err := newGroupSpill(m.budget, m.keyNames, m.keys, m.aggs)
	if err != nil {
		return err
	}
	for g := 0; g < m.state.len(); g++ {
		if err := sp.add(m.keys, g, &m.state, m.firstSeq[g]); err != nil {
			return err
		}
	}
	m.spill = sp
	m.keys, m.state, m.firstSeq, m.idx, m.gids = emptyLike(m.keys), aggState{}, nil, keyIndex{}, nil
	m.retained = 0
	// The resident group state just moved to the spill partitions, whose
	// buffers are bounded by the flush threshold; hand the reservation
	// back so concurrent queries can use the headroom.
	m.res.Release()
	return nil
}

// result finalizes the accumulator: the in-memory render when nothing
// spilled, the grace-hash re-fold otherwise.
func (m *groupedMerge) result() (*data.Table, error) {
	if m.spill != nil {
		return m.spill.finalize()
	}
	return m.finalize()
}

// spilledBytes reports the bytes this accumulator spilled (0 without a
// budget trigger).
func (m *groupedMerge) spilledBytes() int64 {
	if m.spill == nil {
		return 0
	}
	return m.spill.spilledBytes()
}

// finalize renders the accumulated groups: key columns (first-occurrence
// order) followed by one float column per aggregate. Zero groups returns
// nil — the operator synthesizes a typed empty batch from its static
// schema instead (SchemaOf), so empty grouped results keep their real key
// column types.
func (m *groupedMerge) finalize() (*data.Table, error) {
	if m.state.len() == 0 {
		return nil, nil
	}
	return data.NewTable("group_agg", append(m.keys, m.state.results(m.aggs)...)...)
}

// groupedColumns is the operator output schema: keys then aggregates.
func groupedColumns(keys []string, aggs []AggSpec) []string {
	out := make([]string, 0, len(keys)+len(aggs))
	out = append(out, keys...)
	for _, g := range aggs {
		out = append(out, g.As)
	}
	return out
}

// GroupAggregate is the aggregation breaker: it merges one batch-local
// grouped accumulator per input batch by key value, in stream order (see
// the file comment) — computed inline from each batch (dense or hash
// grouping) when lowered serially, or read from the encoded partials an
// exchange of PartialGroupAggregate workers emits in morsel order when
// Parallelize moved the partial step below it. Output rows appear in
// first-occurrence order of the group key, at any DOP. With no Keys it is
// the global aggregate: exactly one row, the identity row over empty input.
type GroupAggregate struct {
	Child Operator
	Keys  []string
	Aggs  []AggSpec

	// exchanged marks a Child that is an Exchange of PartialGroupAggregates
	// (set by Parallelize).
	exchanged bool
	stats     OpStats
	done      bool
	scratch   groupScratch
	env       *Env
}

// Columns returns the group keys followed by the aggregate outputs.
func (a *GroupAggregate) Columns() []string { return groupedColumns(a.Keys, a.Aggs) }

// Open opens the child.
func (a *GroupAggregate) Open(env *Env) error {
	name := "GroupAggregate"
	if len(a.Keys) == 0 {
		name = "Aggregate"
	}
	switch {
	case a.exchanged:
		name += "(merge)"
	case len(a.Keys) > 0:
		name += fmt.Sprintf("(%d keys)", len(a.Keys))
	}
	a.stats = OpStats{Name: name}
	a.done, a.env = false, env.orZero()
	return a.Child.Open(env)
}

// Next drains the child and emits the result as one batch, counting the
// bytes it spilled; zero groups yield a typed empty batch, so downstream
// operators (and the terminal Drain) see the real key column types.
func (a *GroupAggregate) Next() (*data.Table, error) {
	defer startTimer(&a.stats)()
	if a.done {
		return nil, nil
	}
	a.done = true
	acc := newGroupedMerge(a.Keys, a.Aggs)
	acc.budget = a.env.Budget
	for {
		b, err := pull(a.env.Ctx, a.Child)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if !a.exchanged {
			b, err = a.scratch.partial(b, a.Keys, a.Aggs)
		}
		if err == nil {
			err = acc.foldPartials(b, nil)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := fault.Inject(fault.SiteGroupMerge); err != nil {
		return nil, err
	}
	out, err := acc.result()
	if err != nil {
		return nil, err
	}
	a.stats.SpillBytes += acc.spilledBytes()
	if out == nil {
		s, ok := SchemaOf(a)
		if !ok {
			// Underivable schema: the terminal Drain's name-only fallback
			// applies.
			return nil, nil
		}
		if out, err = emptyTyped(s); err != nil {
			return nil, err
		}
	}
	a.stats.Rows += int64(out.NumRows())
	a.stats.Batches++
	return out, nil
}

// Close closes the child.
func (a *GroupAggregate) Close() error { return a.Child.Close() }

// Stats returns the operator statistics.
func (a *GroupAggregate) Stats() *OpStats { return &a.stats }

// Children returns the single child.
func (a *GroupAggregate) Children() []Operator { return []Operator{a.Child} }

// PartialGroupAggregate is the partial step of grouped aggregation moved
// below an exchange: each worker turns every input batch into one encoded
// partial table — the group-key columns gathered at their first-occurrence
// rows (preserving the dictionary representation) plus the batch
// accumulator's COUNT/SUM/MIN/MAX slices as float columns. The exchange
// re-emits these tables in morsel order, so the GroupAggregate above folds
// exactly the serial batch sequence. Every worker clone owns a private
// dense array. Without keys each partial is one row.
type PartialGroupAggregate struct {
	Child Operator
	Keys  []string
	Aggs  []AggSpec

	stats   OpStats
	scratch groupScratch
}

// Columns returns the partial schema: key columns then encoded state.
func (a *PartialGroupAggregate) Columns() []string {
	return append(append([]string{}, a.Keys...), partialColumns(len(a.Aggs))...)
}

// Open opens the child.
func (a *PartialGroupAggregate) Open(env *Env) error {
	a.stats = OpStats{Name: "PartialGroupAggregate"}
	if len(a.Keys) == 0 {
		a.stats.Name = "PartialAggregate"
	}
	return a.Child.Open(env)
}

// Next folds the next child batch into a partial table (one row per
// group present in the batch, first-occurrence order).
func (a *PartialGroupAggregate) Next() (*data.Table, error) {
	defer startTimer(&a.stats)()
	b, err := a.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	out, err := a.scratch.partial(b, a.Keys, a.Aggs)
	if err != nil {
		return nil, err
	}
	a.stats.Rows += int64(out.NumRows())
	a.stats.Batches++
	return out, nil
}

// Close closes the child.
func (a *PartialGroupAggregate) Close() error { return a.Child.Close() }

// Stats returns the operator statistics.
func (a *PartialGroupAggregate) Stats() *OpStats { return &a.stats }

// Children returns the single child.
func (a *PartialGroupAggregate) Children() []Operator { return []Operator{a.Child} }

// CloneWorker implements ParallelOp: clones share the immutable specs and
// own a private scratch (dense array, buffers).
func (a *PartialGroupAggregate) CloneWorker(child Operator) (Operator, error) {
	return &PartialGroupAggregate{Child: child, Keys: a.Keys, Aggs: a.Aggs}, nil
}

// AbsorbWorker merges a worker clone's statistics.
func (a *PartialGroupAggregate) AbsorbWorker(clone Operator) { a.stats.Absorb(clone.Stats()) }

// MergeGroupAggregate exists only so that callers written against the
// former separate merge breaker — the type switch of the frozen
// bench/e2e/trace.go — still compile: Parallelize now leaves a
// GroupAggregate over the exchange of PartialGroupAggregates, and nothing
// builds this type. It is a distinct type rather than an alias because an
// alias would repeat the GroupAggregate case in such a switch, which does
// not compile.
type MergeGroupAggregate struct{ GroupAggregate }
