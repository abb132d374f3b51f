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
//     decomposed into SUM+COUNT);
//   - batch accumulators are merged by group KEY VALUE into a global
//     accumulator in stream order (serial: batch order; parallel: morsel
//     order, which the Exchange guarantees equals serial batch order).
//
// Because both execution modes run the identical per-batch accumulation
// and the identical value-keyed fold — and the parallel partials round-
// trip exactly through float64 columns — parallel grouped results are
// byte-identical to serial ones, at any DOP and under either string
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
	keyCols := make([]*data.Column, len(keys))
	for i, k := range keys {
		c := b.Col(k)
		if c == nil {
			return nil, fmt.Errorf("relational: group key column %q missing", k)
		}
		keyCols[i] = c
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
	encs := make([]groupKeyEnc, len(keyCols))
	for i, c := range keyCols {
		enc, err := keyEncoder(c)
		if err != nil {
			return nil, err
		}
		encs[i] = enc
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
		keyCols := make([]*data.Column, len(m.keys))
		encs := make([]groupKeyEnc, len(m.keys))
		for i, kb := range m.keys {
			keyCols[i] = kb.column()
			enc, err := keyEncoder(keyCols[i])
			if err != nil {
				return err
			}
			encs[i] = enc
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
	encs := make([]groupKeyEnc, len(bg.keyCols))
	for i, c := range bg.keyCols {
		enc, err := keyEncoder(c)
		if err != nil {
			return err
		}
		encs[i] = enc
	}
	for gi, r := range bg.firstRows {
		if err := m.fold(bg.keyCols, encs, r, bg.parts[gi]); err != nil {
			return err
		}
	}
	return nil
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
	cols := make([]*data.Column, 0, len(m.keyNames)+len(m.aggs))
	for _, kb := range m.keys {
		cols = append(cols, kb.column())
	}
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

// GroupAggregate computes grouped aggregates serially: each child batch
// is folded into a batch-local accumulator (dense or hash grouping, see
// the file comment) and merged by key value in batch order. Output rows
// appear in first-occurrence order of the group key, which the parallel
// PartialGroupAggregate/MergeGroupAggregate pair reproduces exactly.
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
	// adaptive dense-vs-hash decision at Open and the second is reported
	// next to the true group count at the breaker ("group_merge").
	EstRows   float64
	EstGroups float64

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
	a.done, a.env = false, env.orZero()
	if err := a.Child.Open(env); err != nil {
		return err
	}
	// The child's Open drained any join build below, so the adaptive
	// context already holds its observed cardinality here.
	a.denseLimit = resolveDenseLimit(a.env.Observe, a.DenseLimit, a.EstRows, "group_agg")
	return nil
}

// Next drains the child and emits the grouped result as one batch.
func (a *GroupAggregate) Next() (*data.Table, error) {
	defer startTimer(&a.stats)()
	if a.done {
		return nil, nil
	}
	a.done = true
	acc := newGroupedMerge(a.Keys, a.Aggs)
	acc.budget = a.env.Budget
	for {
		if err := canceled(a.env.Ctx); err != nil {
			return nil, err
		}
		b, err := a.Child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		bg, err := a.scratch.accumulateGroupedBatch(b, a.Keys, a.Aggs, a.denseLimit)
		if err != nil {
			return nil, err
		}
		if err := acc.foldBatch(bg); err != nil {
			return nil, err
		}
	}
	return finishGrouped(a, acc, a.env, a.EstGroups, &a.stats)
}

// finishGrouped is the end of a grouped breaker (GroupAggregate or
// MergeGroupAggregate): it finalizes acc, counts the spill volume into st
// and — when env observes — reports the true group count next to
// estGroups, plus the spill accounting. Zero groups yield a typed empty
// batch, so downstream operators (and the terminal Drain) see the real
// key column types.
func finishGrouped(op Operator, acc *groupedMerge, env *Env, estGroups float64, st *OpStats) (*data.Table, error) {
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
	st.SpillBytes += sb
	if env.Observe != nil {
		env.Observe.ObserveCardinality("group_merge", estGroups, float64(groups))
		if sb > 0 {
			env.Observe.ObserveCardinality("group_spill_bytes", 0, float64(sb))
			env.Observe.ObserveCardinality("group_spill_partitions", 0, float64(groupSpillPartitions))
		}
	}
	if out == nil {
		if out, err = emptyGrouped(op); err != nil || out == nil {
			return nil, err
		}
	}
	st.Rows += int64(out.NumRows())
	st.Batches++
	return out, nil
}

// Close closes the child.
func (a *GroupAggregate) Close() error { return a.Child.Close() }

// Stats returns the operator statistics.
func (a *GroupAggregate) Stats() *OpStats { return &a.stats }

// Children returns the single child.
func (a *GroupAggregate) Children() []Operator { return []Operator{a.Child} }

// PartialGroupAggregate computes per-batch grouped partials inside an
// exchange worker: each input batch becomes one encoded partial table —
// the group-key columns gathered at their first-occurrence rows
// (preserving the dictionary representation) plus the per-group
// COUNT/SUM/MIN/MAX state as float columns. The exchange re-emits these
// tables in morsel order, so the MergeGroupAggregate above folds exactly
// the serial batch sequence.
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
	nGroups := len(bg.parts)
	cols := make([]*data.Column, 0, len(a.Keys)+1+3*len(a.Aggs))
	for _, kc := range bg.keyCols {
		cols = append(cols, kc.Gather(bg.firstRows))
	}
	counts := make([]float64, nGroups)
	for p, part := range bg.parts {
		counts[p] = part.count
	}
	cols = append(cols, data.NewFloat("__count", counts))
	for gi := range a.Aggs {
		sums := make([]float64, nGroups)
		mins := make([]float64, nGroups)
		maxs := make([]float64, nGroups)
		for p, part := range bg.parts {
			sums[p] = part.sums[gi]
			mins[p] = part.mins[gi]
			maxs[p] = part.maxs[gi]
		}
		cols = append(cols,
			data.NewFloat(fmt.Sprintf("__sum%d", gi), sums),
			data.NewFloat(fmt.Sprintf("__min%d", gi), mins),
			data.NewFloat(fmt.Sprintf("__max%d", gi), maxs))
	}
	out, err := data.NewTable("group_partial", cols...)
	if err != nil {
		return nil, err
	}
	a.stats.Rows += int64(nGroups)
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
// own a private scratch (dense array, buffers). Worker clones (created
// after the template's Open) inherit the resolved adaptive dense limit;
// pre-Open clones (the chainify rebuild) resolve it once at their Open.
func (a *PartialGroupAggregate) CloneWorker(child Operator) (Operator, error) {
	return &PartialGroupAggregate{Child: child, Keys: a.Keys, Aggs: a.Aggs, DenseLimit: a.DenseLimit,
		EstRows: a.EstRows, resolved: a.resolved, denseLimit: a.denseLimit}, nil
}

// AbsorbWorker merges a worker clone's statistics.
func (a *PartialGroupAggregate) AbsorbWorker(clone Operator) { a.stats.Absorb(clone.Stats()) }

// MergeGroupAggregate is the pipeline breaker above an exchange of
// PartialGroupAggregates: it folds the partial tables in stream (=
// morsel) order, merging groups by key value — dictionary codes never
// cross the breaker unresolved, so partials with mismatched dictionaries
// or raw strings agree byte-for-byte — and emits the grouped result in
// first-occurrence order.
type MergeGroupAggregate struct {
	Child Operator
	Keys  []string
	Aggs  []AggSpec
	// EstGroups mirrors GroupAggregate: the breaker reports the true group
	// cardinality ("group_merge") for downstream re-costing.
	EstGroups float64

	stats OpStats
	done  bool
	env   *Env
}

// Columns returns the group keys followed by the aggregate outputs.
func (m *MergeGroupAggregate) Columns() []string { return groupedColumns(m.Keys, m.Aggs) }

// Open opens the child.
func (m *MergeGroupAggregate) Open(env *Env) error {
	m.stats = OpStats{Name: "GroupAggregate(merge)"}
	m.done, m.env = false, env.orZero()
	return m.Child.Open(env)
}

// Next drains the child's partial tables and emits the merged result.
func (m *MergeGroupAggregate) Next() (*data.Table, error) {
	defer startTimer(&m.stats)()
	if m.done {
		return nil, nil
	}
	m.done = true
	acc := newGroupedMerge(m.Keys, m.Aggs)
	acc.budget = m.env.Budget
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
		keyCols := make([]*data.Column, len(m.Keys))
		encs := make([]groupKeyEnc, len(m.Keys))
		for i, k := range m.Keys {
			c := b.Col(k)
			if c == nil {
				return nil, fmt.Errorf("relational: grouped partial batch lacks key column %q", k)
			}
			keyCols[i] = c
			enc, err := keyEncoder(c)
			if err != nil {
				return nil, err
			}
			encs[i] = enc
		}
		for r := 0; r < b.NumRows(); r++ {
			p, err := decodePartialRow(b, r, len(m.Aggs))
			if err != nil {
				return nil, err
			}
			if err := acc.fold(keyCols, encs, r, p); err != nil {
				return nil, err
			}
		}
	}
	return finishGrouped(m, acc, m.env, m.EstGroups, &m.stats)
}

// emptyGrouped synthesizes a typed zero-row grouped result from the
// operator's static schema; nil (without error) when the schema cannot be
// derived, leaving the terminal Drain's name-only fallback to apply.
func emptyGrouped(op Operator) (*data.Table, error) {
	s, ok := SchemaOf(op)
	if !ok {
		return nil, nil
	}
	return emptyTyped(s)
}

// Close closes the child.
func (m *MergeGroupAggregate) Close() error { return m.Child.Close() }

// Stats returns the operator statistics.
func (m *MergeGroupAggregate) Stats() *OpStats { return &m.stats }

// Children returns the single child.
func (m *MergeGroupAggregate) Children() []Operator { return []Operator{m.Child} }
