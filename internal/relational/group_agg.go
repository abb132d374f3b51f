package relational

import (
	"encoding/binary"
	"fmt"
	"math"

	"raven/internal/data"
	"raven/internal/fault"
)

// Grouped aggregation (GROUP BY) — the grouped twin of the global
// aggregation in ops.go / parallel_agg.go, built on the same per-batch
// partial + in-order fold discipline:
//
//   - every input batch is folded into a batch-local grouped accumulator
//     (groups in first-occurrence row order, each holding the same
//     COUNT/SUM/MIN/MAX state the global aggPartial carries, AVG
//     decomposed into SUM+COUNT) — inline in the GroupAggregate breaker,
//     or in the PartialGroupAggregate workers of an exchange, which encode
//     it as a table;
//   - the breaker merges batch accumulators by group KEY VALUE into a
//     global accumulator in stream order (serial: batch order; exchanged:
//     morsel order, which the Exchange guarantees equals serial batch
//     order).
//
// Because both placements of the partial step run the identical per-batch
// accumulation and the breaker the identical value-keyed fold — and the
// encoded partials round-trip exactly through float64 columns — grouped
// results are byte-identical at any DOP and under either string
// representation. Output row order is deterministic: first occurrence of
// the group key in serial batch order.
//
// Two grouping paths compute the batch-local accumulator:
//
//   - dense: a single dictionary-encoded key column with cardinality at
//     most the dense limit indexes a per-operator (per-worker, under an
//     Exchange) dense code→group array — no hashing at all. The array is
//     reused across batches and reset via the touched-code list.
//   - hash: typed group keys are canonically encoded (int64/float-bits
//     with NaN canonicalized/bool fixed width, strings length-prefixed by
//     value — dictionary codes are never compared across dictionaries)
//     into a reused buffer probing a map[string]int.
//
// Both paths visit rows in batch order and update per-group state with
// the same operations, so dense and hash grouping are bit-identical; the
// engine picks between them per Profile (DenseGroupLimit).

// DefaultDenseGroupLimit is the largest dictionary cardinality the dense
// code→group grouping path is used for when the operator's DenseLimit is
// 0 (the per-worker dense array costs 4 bytes per dictionary entry).
const DefaultDenseGroupLimit = 4096

// groupKeyEnc appends row i's canonical key bytes to dst. Encodings are
// self-delimiting per column type, so concatenating a fixed schema of
// keys is unambiguous.
type groupKeyEnc func(i int, dst []byte) []byte

// canonFloatBits maps a float64 to comparable key bits: all NaN payloads
// collapse to one group (matching the join build's NaN canonicalization).
func canonFloatBits(v float64) uint64 {
	if math.IsNaN(v) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// keyEncoder returns the canonical encoder for one key column.
func keyEncoder(c *data.Column) (groupKeyEnc, error) {
	switch c.Type {
	case data.Int64:
		vals := c.I64
		return func(i int, dst []byte) []byte {
			return binary.LittleEndian.AppendUint64(dst, uint64(vals[i]))
		}, nil
	case data.Float64:
		vals := c.F64
		return func(i int, dst []byte) []byte {
			return binary.LittleEndian.AppendUint64(dst, canonFloatBits(vals[i]))
		}, nil
	case data.Bool:
		vals := c.B
		return func(i int, dst []byte) []byte {
			if vals[i] {
				return append(dst, 1)
			}
			return append(dst, 0)
		}, nil
	case data.String:
		at := strAt(c)
		return func(i int, dst []byte) []byte {
			s := at(i)
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			return append(dst, s...)
		}, nil
	}
	return nil, fmt.Errorf("relational: cannot group by column %q of type %s", c.Name, c.Type)
}

// keyEncoders returns the canonical encoders of a key tuple's columns.
func keyEncoders(cols []*data.Column) ([]groupKeyEnc, error) {
	encs := make([]groupKeyEnc, len(cols))
	for i, c := range cols {
		enc, err := keyEncoder(c)
		if err != nil {
			return nil, err
		}
		encs[i] = enc
	}
	return encs, nil
}

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

// keyBuilder accumulates first-occurrence key values for one key column
// and renders them as an output column. String keys are emitted as raw
// strings regardless of the input representation, so raw and
// dictionary-encoded runs produce identical output columns.
type keyBuilder struct {
	name string
	typ  data.Type
	f64  []float64
	i64  []int64
	str  []string
	b    []bool
}

func newKeyBuilder(name string, typ data.Type) *keyBuilder {
	return &keyBuilder{name: name, typ: typ}
}

// add appends row i of c (which must match the builder's type).
func (k *keyBuilder) add(c *data.Column, i int) error {
	if c.Type != k.typ {
		return fmt.Errorf("relational: group key %q changed type from %s to %s", k.name, k.typ, c.Type)
	}
	switch k.typ {
	case data.Float64:
		k.f64 = append(k.f64, c.F64[i])
	case data.Int64:
		k.i64 = append(k.i64, c.I64[i])
	case data.String:
		k.str = append(k.str, c.AsString(i))
	case data.Bool:
		k.b = append(k.b, c.B[i])
	}
	return nil
}

func (k *keyBuilder) column() *data.Column {
	switch k.typ {
	case data.Float64:
		return data.NewFloat(k.name, k.f64)
	case data.Int64:
		return data.NewInt(k.name, k.i64)
	case data.Bool:
		return data.NewBool(k.name, k.b)
	default:
		return data.NewString(k.name, k.str)
	}
}

// batchGroups is the grouped accumulator of one batch: per group (in
// first-occurrence row order) the first row index and the aggregate
// partial, plus the batch's key columns for value extraction.
type batchGroups struct {
	keyCols   []*data.Column
	firstRows []int
	parts     []*aggPartial
}

// groupScratch holds the per-operator (per-worker) reusable state of the
// batch accumulation hot path: the dense code→group array keyed on the
// dictionary identity, the composite-key buffer and resolved column
// slices. It is not safe for concurrent use; exchange workers each own a
// clone's scratch.
type groupScratch struct {
	dict    *data.Dictionary
	denseG  []int32 // code → group index + 1; 0 = unseen this batch
	buf     []byte
	aggCols []*data.Column
	hashIdx map[string]int
}

// resolveAggCols caches the per-batch aggregate input columns (nil slots
// for COUNT, which reads no column).
func (s *groupScratch) resolveAggCols(b *data.Table, aggs []AggSpec) error {
	if cap(s.aggCols) < len(aggs) {
		s.aggCols = make([]*data.Column, len(aggs))
	}
	s.aggCols = s.aggCols[:len(aggs)]
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

// addRow folds row i of the batch into the group's partial. Visiting rows
// in batch order with these exact operations is the contract every
// grouping path (dense, hash, serial, parallel) shares.
func (s *groupScratch) addRow(p *aggPartial, i int) {
	p.count++
	for gi, c := range s.aggCols {
		if c == nil {
			continue
		}
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

// denseKey reports whether the batch's key columns qualify for the dense
// grouping path: exactly one dictionary-encoded key whose cardinality is
// within limit.
func denseKey(keyCols []*data.Column, limit int) (*data.Column, bool) {
	if limit < 0 || len(keyCols) != 1 {
		return nil, false
	}
	if limit == 0 {
		limit = DefaultDenseGroupLimit
	}
	c := keyCols[0]
	if c.IsDict() && c.Dict.Len() <= limit {
		return c, true
	}
	return nil, false
}

// accumulateGroupedBatch computes the batch-local grouped accumulator.
func (s *groupScratch) accumulateGroupedBatch(b *data.Table, keys []string, aggs []AggSpec, denseLimit int) (*batchGroups, error) {
	keyCols, err := keyColumns(b, keys)
	if err != nil {
		return nil, err
	}
	if err := s.resolveAggCols(b, aggs); err != nil {
		return nil, err
	}
	bg := &batchGroups{keyCols: keyCols}
	n := b.NumRows()
	if kc, ok := denseKey(keyCols, denseLimit); ok {
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
				bg.firstRows = append(bg.firstRows, i)
				bg.parts = append(bg.parts, newAggPartial(len(aggs)))
				gi = int32(len(bg.parts))
				s.denseG[code] = gi
			}
			s.addRow(bg.parts[gi-1], i)
		}
		for _, r := range bg.firstRows {
			s.denseG[codes[r]] = 0
		}
		return bg, nil
	}
	encs, err := keyEncoders(keyCols)
	if err != nil {
		return nil, err
	}
	if s.hashIdx == nil {
		s.hashIdx = make(map[string]int, 16)
	} else {
		clear(s.hashIdx)
	}
	for i := 0; i < n; i++ {
		s.buf = s.buf[:0]
		for _, enc := range encs {
			s.buf = enc(i, s.buf)
		}
		gi, ok := s.hashIdx[string(s.buf)]
		if !ok {
			gi = len(bg.parts)
			s.hashIdx[string(s.buf)] = gi
			bg.firstRows = append(bg.firstRows, i)
			bg.parts = append(bg.parts, newAggPartial(len(aggs)))
		}
		s.addRow(bg.parts[gi], i)
	}
	return bg, nil
}

// groupedMerge is the global grouped accumulator the breaker (or the
// serial operator) folds batch accumulators into. Groups are keyed by
// canonical key VALUE — never by dictionary code — so partials carrying
// mismatched dictionaries or raw strings merge correctly, and ordered by
// first occurrence in fold order.
type groupedMerge struct {
	keyNames []string
	aggs     []AggSpec

	keys  []*keyBuilder
	parts []*aggPartial
	idx   map[string]int
	buf   []byte

	// budget, when set, caps the resident group state: once retained
	// exceeds it, the accumulator migrates to grace-hash partition spill
	// (group_spill.go) and all later folds route there. seq numbers every
	// fold; firstSeq remembers each resident group's first one so the
	// spilled output can be restored to first-occurrence order.
	budget   *MemBudget
	res      *Reservation
	seq      float64
	firstSeq []float64
	retained int64
	spill    *groupSpill
}

func newGroupedMerge(keyNames []string, aggs []AggSpec) *groupedMerge {
	return &groupedMerge{keyNames: keyNames, aggs: aggs, idx: make(map[string]int)}
}

// groupStateBytes approximates the resident cost of one group beyond its
// key bytes: map entry, partial struct, three float slices.
func groupStateBytes(nAggs int) int64 { return 64 + 8*int64(1+3*nAggs) }

// fold merges one group — key values at row r of keyCols (encoded by
// encs), partial state p — into the accumulator, taking ownership of p.
func (m *groupedMerge) fold(keyCols []*data.Column, encs []groupKeyEnc, r int, p *aggPartial) error {
	m.buf = m.buf[:0]
	for _, enc := range encs {
		m.buf = enc(r, m.buf)
	}
	seq := m.seq
	m.seq++
	if m.spill != nil {
		return m.spill.add(m.buf, keyCols, r, p, seq)
	}
	if gi, ok := m.idx[string(m.buf)]; ok {
		m.parts[gi].fold(p)
		return nil
	}
	if m.keys == nil {
		m.keys = make([]*keyBuilder, len(m.keyNames))
		for i, name := range m.keyNames {
			m.keys[i] = newKeyBuilder(name, keyCols[i].Type)
		}
	}
	for i, kb := range m.keys {
		if err := kb.add(keyCols[i], r); err != nil {
			return err
		}
	}
	m.idx[string(m.buf)] = len(m.parts)
	m.parts = append(m.parts, p)
	m.firstSeq = append(m.firstSeq, seq)
	m.retained += int64(len(m.buf)) + groupStateBytes(len(m.aggs))
	if m.res == nil {
		m.res = m.budget.Reserve()
	}
	if m.res.Over(m.retained) {
		return m.startSpill()
	}
	return nil
}

// startSpill switches the accumulator to grace-hash spill, migrating the
// resident groups (in first-occurrence order, carrying their original
// first-occurrence sequence numbers) into the partitions. The migrated
// row of a group holds its full accumulated prefix state; later partials
// of the same key fold after it in stream order, so the re-fold
// reproduces the serial fold exactly.
func (m *groupedMerge) startSpill() error {
	sp, err := newGroupSpill(m.budget, m.keyNames, m.aggs)
	if err != nil {
		return err
	}
	if len(m.parts) > 0 {
		keyCols := builtColumns(m.keys)
		encs, err := keyEncoders(keyCols)
		if err != nil {
			return err
		}
		buf := make([]byte, 0, 64)
		for gi, p := range m.parts {
			buf = buf[:0]
			for _, enc := range encs {
				buf = enc(gi, buf)
			}
			if err := sp.add(buf, keyCols, gi, p, m.firstSeq[gi]); err != nil {
				return err
			}
		}
	}
	m.spill = sp
	m.keys, m.parts, m.firstSeq = nil, nil, nil
	m.idx = make(map[string]int)
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

// foldBatch merges a batch-local accumulator group by group, in the
// batch's first-occurrence order.
func (m *groupedMerge) foldBatch(bg *batchGroups) error {
	encs, err := keyEncoders(bg.keyCols)
	if err != nil {
		return err
	}
	for gi, r := range bg.firstRows {
		if err := m.fold(bg.keyCols, encs, r, bg.parts[gi]); err != nil {
			return err
		}
	}
	return nil
}

// resolveGroupedPartials resolves an encoded grouped-partial batch (a
// PartialGroupAggregate output or a grouped spill slab) for folding row by
// row: its key columns with their encoders, and the state columns named
// by state.
func resolveGroupedPartials(b *data.Table, keys, state []string) ([]*data.Column, []groupKeyEnc, partialCols, error) {
	keyCols, err := keyColumns(b, keys)
	if err != nil {
		return nil, nil, nil, err
	}
	encs, err := keyEncoders(keyCols)
	if err != nil {
		return nil, nil, nil, err
	}
	pc, err := resolvePartials(b, state)
	return keyCols, encs, pc, err
}

// foldPartials merges an encoded grouped-partial batch row by row.
func (m *groupedMerge) foldPartials(b *data.Table, state []string) error {
	keyCols, encs, pc, err := resolveGroupedPartials(b, m.keyNames, state)
	if err != nil {
		return err
	}
	for r := 0; r < b.NumRows(); r++ {
		if err := m.fold(keyCols, encs, r, pc.row(r)); err != nil {
			return err
		}
	}
	return nil
}

// builtColumns renders key builders as columns.
func builtColumns(keys []*keyBuilder) []*data.Column {
	cols := make([]*data.Column, len(keys))
	for i, kb := range keys {
		cols[i] = kb.column()
	}
	return cols
}

// finalize renders the accumulated groups: key columns (first-occurrence
// order) followed by one float column per aggregate, AVG divided only
// here. Zero groups returns nil — the operator synthesizes a typed empty
// batch from its static schema instead (SchemaOf), so empty grouped
// results keep their real key column types.
func (m *groupedMerge) finalize() (*data.Table, error) {
	if len(m.parts) == 0 {
		return nil, nil
	}
	cols := append(make([]*data.Column, 0, len(m.keyNames)+len(m.aggs)), builtColumns(m.keys)...)
	for gi, g := range m.aggs {
		vals := make([]float64, len(m.parts))
		for p, part := range m.parts {
			switch g.Fn {
			case AggCount:
				vals[p] = part.count
			case AggSum:
				vals[p] = part.sums[gi]
			case AggAvg:
				if part.count > 0 {
					vals[p] = part.sums[gi] / part.count
				}
			case AggMin:
				vals[p] = part.mins[gi]
			case AggMax:
				vals[p] = part.maxs[gi]
			}
		}
		cols = append(cols, data.NewFloat(g.As, vals))
	}
	return data.NewTable("group_agg", cols...)
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

// GroupAggregate is the grouped-aggregation breaker: it merges one
// batch-local grouped accumulator per input batch by key value, in stream
// order (see the file comment) — computed inline from each batch (dense or
// hash grouping) when lowered serially, or read from the encoded partials an
// exchange of PartialGroupAggregate workers emits in morsel order when
// Parallelize moved the partial step below it. Output rows appear in
// first-occurrence order of the group key, at any DOP.
type GroupAggregate struct {
	Child Operator
	Keys  []string
	Aggs  []AggSpec
	// DenseLimit bounds the dictionary cardinality of the dense grouping
	// path: 0 means DefaultDenseGroupLimit, negative disables the dense
	// path entirely (always hash). The engine sets it from the Profile.
	DenseLimit int
	// EstRows/EstGroups are the plan-time estimates for the input rows and
	// the group count: when the environment observes, the first drives the
	// adaptive dense-vs-hash decision at Open (the PartialGroupAggregate
	// template's Open, once exchanged) and the second is reported next to
	// the true group count at the breaker ("group_merge").
	EstRows   float64
	EstGroups float64

	// exchanged marks a Child that is an Exchange of PartialGroupAggregates
	// (set by Parallelize).
	exchanged  bool
	stats      OpStats
	done       bool
	denseLimit int // DenseLimit after the adaptive Open decision
	scratch    groupScratch
	env        *Env
}

// Columns returns the group keys followed by the aggregate outputs.
func (a *GroupAggregate) Columns() []string { return groupedColumns(a.Keys, a.Aggs) }

// Open opens the child.
func (a *GroupAggregate) Open(env *Env) error {
	if len(a.Keys) == 0 {
		return fmt.Errorf("relational: GroupAggregate requires at least one key (use Aggregate)")
	}
	a.stats = OpStats{Name: fmt.Sprintf("GroupAggregate(%d keys)", len(a.Keys))}
	if a.exchanged {
		a.stats.Name = "GroupAggregate(merge)"
	}
	a.done, a.env = false, env.orZero()
	if err := a.Child.Open(env); err != nil {
		return err
	}
	// The child's Open drained any join build below, so the adaptive
	// context already holds its observed cardinality here.
	if !a.exchanged {
		a.denseLimit = resolveDenseLimit(a.env.Observe, a.DenseLimit, a.EstRows, "group_agg")
	}
	return nil
}

// Next drains the child and emits the grouped result as one batch. It
// reports the true group count next to EstGroups when the environment
// observes, plus the spill accounting; zero groups yield a typed empty
// batch, so downstream operators (and the terminal Drain) see the real key
// column types.
func (a *GroupAggregate) Next() (*data.Table, error) {
	defer startTimer(&a.stats)()
	if a.done {
		return nil, nil
	}
	a.done = true
	acc := newGroupedMerge(a.Keys, a.Aggs)
	acc.budget = a.env.Budget
	state := partialColumns(len(a.Aggs))
	for {
		b, err := pull(a.env.Ctx, a.Child)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if a.exchanged {
			err = acc.foldPartials(b, state)
		} else {
			var bg *batchGroups
			if bg, err = a.scratch.accumulateGroupedBatch(b, a.Keys, a.Aggs, a.denseLimit); err == nil {
				err = acc.foldBatch(bg)
			}
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
	groups := 0
	if out != nil {
		groups = out.NumRows()
	}
	sb := acc.spilledBytes()
	a.stats.SpillBytes += sb
	if obs := a.env.Observe; obs != nil {
		obs.ObserveCardinality("group_merge", a.EstGroups, float64(groups))
		if sb > 0 {
			obs.ObserveCardinality("group_spill_bytes", 0, float64(sb))
			obs.ObserveCardinality("group_spill_partitions", 0, float64(groupSpillPartitions))
		}
	}
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
// rows (preserving the dictionary representation) plus the per-group
// COUNT/SUM/MIN/MAX state as float columns. The exchange re-emits these
// tables in morsel order, so the GroupAggregate above folds exactly the
// serial batch sequence.
type PartialGroupAggregate struct {
	Child Operator
	Keys  []string
	Aggs  []AggSpec
	// DenseLimit is the dense-path bound, as on GroupAggregate. Every
	// worker clone owns a private dense array ("per-worker dense arrays").
	DenseLimit int
	// EstRows drives the adaptive dense-vs-hash decision at the exchange
	// template's Open (when the environment observes); worker clones
	// inherit the resolved limit so the decision is made (and recorded)
	// exactly once.
	EstRows float64

	stats      OpStats
	resolved   bool
	denseLimit int
	scratch    groupScratch
}

// Columns returns the partial schema: key columns then encoded state.
func (a *PartialGroupAggregate) Columns() []string {
	return append(append([]string{}, a.Keys...), partialColumns(len(a.Aggs))...)
}

// Open opens the child and resolves the adaptive dense-vs-hash decision
// (once, on the exchange template; worker clones inherit the result).
func (a *PartialGroupAggregate) Open(env *Env) error {
	a.stats = OpStats{Name: "PartialGroupAggregate"}
	if err := a.Child.Open(env); err != nil {
		return err
	}
	if !a.resolved {
		a.denseLimit = resolveDenseLimit(env.orZero().Observe, a.DenseLimit, a.EstRows, "group_agg")
		a.resolved = true
	}
	return nil
}

// Next folds the next child batch into a partial table (one row per
// group present in the batch, first-occurrence order).
func (a *PartialGroupAggregate) Next() (*data.Table, error) {
	defer startTimer(&a.stats)()
	b, err := a.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	bg, err := a.scratch.accumulateGroupedBatch(b, a.Keys, a.Aggs, a.denseLimit)
	if err != nil {
		return nil, err
	}
	cols := make([]*data.Column, 0, len(a.Keys)+1+3*len(a.Aggs))
	for _, kc := range bg.keyCols {
		cols = append(cols, kc.Gather(bg.firstRows))
	}
	out, err := data.NewTable("group_partial", append(cols, encodePartials(bg.parts, len(a.Aggs))...)...)
	if err != nil {
		return nil, err
	}
	a.stats.Rows += int64(len(bg.parts))
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
// own a private scratch (dense array, buffers). Worker clones are created
// after the template's Open, so they inherit its resolved adaptive dense
// limit.
func (a *PartialGroupAggregate) CloneWorker(child Operator) (Operator, error) {
	return &PartialGroupAggregate{Child: child, Keys: a.Keys, Aggs: a.Aggs, DenseLimit: a.DenseLimit,
		EstRows: a.EstRows, resolved: a.resolved, denseLimit: a.denseLimit}, nil
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
