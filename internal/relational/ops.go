package relational

import (
	"context"
	"fmt"
	"slices"
	"time"

	"raven/internal/data"
	"raven/internal/sched"
)

// OpStats accumulates per-operator execution statistics. WallNs is
// inclusive (contains time spent in children); the engine derives
// exclusive times by subtracting child inclusive times.
type OpStats struct {
	Name string
	// Rows counts the rows the operator produced — except on scans, where
	// it counts the rows read: a chunk-backed scan with zone predicates
	// emits only the rows satisfying them, but reads the predicate columns
	// of every row of the chunks their zone maps left live, and counts all
	// of those.
	Rows      int64
	Batches   int64
	WallNs    int64
	BytesRead int64
	// SpillBytes counts bytes this operator wrote to spill files under
	// the query's memory budget (0 when it never spilled).
	SpillBytes int64
	// ChunksDecoded and ChunksSkipped count, on scans of chunk-backed
	// partitions, the chunk decodes performed and the chunks left encoded
	// because a zone map — the partition's or the chunk's own — excluded
	// them.
	ChunksDecoded, ChunksSkipped int64
}

// Env is the execution environment of one run of an operator tree: what
// the host gives every operator instead of per-operator fields. Open hands
// it down the whole tree (the Exchange to each worker chain too), and an
// operator that needs it after Open keeps the pointer it was opened with.
// A nil or zero Env runs unbudgeted and uncancellable on the
// process-wide scheduler. Fields are read-only once execution starts.
type Env struct {
	// Ctx is polled by the Exchange at every morsel and by every pipeline
	// breaker once per drained input batch, so a canceled query stops
	// within one batch of work.
	Ctx context.Context
	// Budget is the query's memory budget; nil keeps every breaker in
	// memory.
	Budget *MemBudget
	// Sched runs the exchanges' tasks; nil means sched.Default().
	Sched *sched.Scheduler
}

// zeroEnv is what a nil *Env stands for.
var zeroEnv Env

// orZero returns env, or the zero environment when env is nil.
func (env *Env) orZero() *Env {
	if env == nil {
		return &zeroEnv
	}
	return env
}

// Scheduler resolves the scheduler the environment runs on: Sched, or the
// process-wide pool.
func (env *Env) Scheduler() *sched.Scheduler {
	if env == nil || env.Sched == nil {
		return sched.Default()
	}
	return env.Sched
}

// Operator is a pull-based physical operator producing columnar batches.
// Next returns (nil, nil) at end of stream.
type Operator interface {
	// Columns returns the output column names.
	Columns() []string
	// Open prepares the operator (and its children) for execution under
	// env, which it forwards to its children.
	Open(env *Env) error
	// Next produces the next batch, or (nil, nil) at end of stream.
	Next() (*data.Table, error)
	// Close releases resources.
	Close() error
	// Stats returns the operator's accumulated statistics.
	Stats() *OpStats
	// Children returns the child operators.
	Children() []Operator
}

func startTimer(s *OpStats) func() {
	t0 := time.Now()
	return func() { s.WallNs += time.Since(t0).Nanoseconds() }
}

// Timer adds the elapsed time between the call and the returned func's
// invocation to s.WallNs. Exposed for operators defined outside this
// package (e.g. the engine's PredictOp).
func Timer(s *OpStats) func() { return startTimer(s) }

// ZonePredicate is a simple comparison (col op literal) copied from a
// Filter above the scan: zone maps prune whole partitions and the chunks
// of chunk-backed ones with it, and those chunks' rows are selected by it.
type ZonePredicate struct {
	Col   string
	Op    BinOpKind
	Val   float64
	StrV  string
	IsStr bool
}

// CanSkip reports whether the zone (partition or chunk) described by
// stats cannot contain any row satisfying the predicate. Missing stats are
// conservative (no skip), and so is a zone holding a NaN: Min/Max ignore
// NaNs, but the engine's comparisons order NaN as equal to everything, so
// a NaN row can satisfy a predicate its zone's range rules out.
func (z ZonePredicate) CanSkip(stats data.TableStats) bool {
	s, ok := stats[z.Col]
	if !ok {
		return false
	}
	if z.IsStr {
		if z.Op != OpEq || s.Type != data.String || s.DistinctOverflow {
			return false
		}
		for _, v := range s.Distinct {
			if v == z.StrV {
				return false
			}
		}
		return true
	}
	if !s.HasRange() || s.HasNaN {
		return false
	}
	switch z.Op {
	case OpEq:
		return z.Val < s.Min || z.Val > s.Max
	case OpLt:
		return s.Min >= z.Val
	case OpLe:
		return s.Min > z.Val
	case OpGt:
		return s.Max <= z.Val
	case OpGe:
		return s.Max < z.Val
	case OpNe:
		return s.Min == z.Val && s.Max == z.Val
	}
	return false
}

// Scan streams a partitioned table in batches, reading only the requested
// columns and skipping what the zone predicates rule out: whole partitions,
// single chunks of chunk-backed partitions and, within their live chunks,
// the rows that fail a predicate. When Alias is set, output columns are
// qualified "alias.col".
type Scan struct {
	Table     *data.PartitionedTable
	Cols      []string // nil means all columns
	Alias     string
	BatchSize int
	Prune     []ZonePredicate
	// PartIndex limits the scan to a single partition (used by
	// per-partition plans of the data-induced optimization); -1 scans all.
	PartIndex int

	stats   OpStats
	part    int
	offset  int
	skipped int
	// views[i] is the reading plan of chunk-backed partition i (projection
	// resolved to blocks, live chunks), set by enter. Allocated at the
	// first chunk-backed partition, so in-memory scans never pay for it.
	views []*data.ChunkView
	// rows is the views' row filter, built from Prune with views (nil
	// without zone predicates).
	rows *data.RowFilter
	// cache holds the serial cursor's most recently decoded chunk when the
	// current partition is chunk-backed; reset at each partition start.
	cache *data.ChunkCache
}

// NewScan builds a scan over all partitions with the default batch size.
func NewScan(t *data.PartitionedTable, alias string, cols []string, batchSize int) *Scan {
	return &Scan{Table: t, Alias: alias, Cols: cols, BatchSize: batchSize, PartIndex: -1}
}

// Columns returns the qualified output column names.
func (s *Scan) Columns() []string {
	names := s.Cols
	if names == nil {
		names = s.Table.Schema().Names()
	}
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = s.qualify(n)
	}
	return out
}

func (s *Scan) qualify(col string) string {
	if s.Alias == "" {
		return col
	}
	return s.Alias + "." + col
}

// Open resets the scan position.
func (s *Scan) Open(*Env) error {
	s.stats = OpStats{Name: "Scan(" + s.Table.Name + ")"}
	s.part, s.offset, s.skipped = 0, 0, 0
	s.views = nil
	if s.BatchSize <= 0 {
		s.BatchSize = 10000
	}
	if s.PartIndex >= 0 {
		s.part = s.PartIndex
	}
	return nil
}

// SkippedPartitions returns how many partitions were pruned by zone maps.
func (s *Scan) SkippedPartitions() int { return s.skipped }

// PartitionsRead returns how many partitions the executed scan read: the
// table's partitions minus the pruned ones, or the single partition a
// per-partition plan is pinned to.
func (s *Scan) PartitionsRead() int {
	if s.PartIndex >= 0 {
		return 1
	}
	return len(s.Table.Parts) - s.skipped
}

// canSkip reports whether some zone predicate excludes the zone.
func (s *Scan) canSkip(zone data.TableStats) bool {
	for _, z := range s.Prune {
		if z.CanSkip(zone) {
			return true
		}
	}
	return false
}

// enter decides, once per scan, what of partition pi is read: nothing when
// its zone map excludes a predicate (false), otherwise — for a chunk-backed
// partition — the chunks whose own zone maps admit every predicate. The
// serial cursor and Morsels both come through here, so they prune and
// count alike.
func (s *Scan) enter(pi int) (bool, error) {
	p := s.Table.Parts[pi]
	if s.canSkip(p.Stats) {
		s.skipped++
		if p.Chunked != nil {
			s.stats.ChunksSkipped += int64(p.Chunked.NumChunks())
		}
		return false, nil
	}
	if p.Chunked == nil {
		return true, nil
	}
	var live []bool
	if len(s.Prune) > 0 && p.ChunkStats != nil {
		live = make([]bool, len(p.ChunkStats))
		for i, zone := range p.ChunkStats {
			if live[i] = !s.canSkip(zone); !live[i] {
				s.stats.ChunksSkipped++
			}
		}
	}
	if s.views == nil {
		s.views = make([]*data.ChunkView, len(s.Table.Parts))
		s.rows = s.rowFilter()
	}
	var err error
	s.views[pi], err = p.Chunked.View(s.Cols, live, s.rows)
	return true, err
}

// rowFilter turns the zone predicates into the row filter of the scan's
// chunk views (nil without predicates): each conjunct is the BinOp the
// Filter above evaluates — column op literal — and the conjunction runs
// through the same Expr kernels, so the rows selected are exactly the rows
// that Filter keeps by construction (NaN compares as equal, int64 as
// float, dictionary strings by code).
func (s *Scan) rowFilter() *data.RowFilter {
	if len(s.Prune) == 0 {
		return nil
	}
	var pred Expr
	var cols []string
	for _, z := range s.Prune {
		var lit Expr = Num(z.Val)
		if z.IsStr {
			lit = Str(z.StrV)
		}
		conj := NewBinOp(z.Op, Col(z.Col), lit)
		if pred == nil {
			pred = conj
		} else {
			pred = NewBinOp(OpAnd, pred, conj)
		}
		if !slices.Contains(cols, z.Col) {
			cols = append(cols, z.Col)
		}
	}
	return &data.RowFilter{Cols: cols, Select: func(t *data.Table) ([]int32, error) {
		c, err := pred.Eval(t)
		if err != nil {
			return nil, err
		}
		if c.Type != data.Bool {
			return nil, fmt.Errorf("relational: zone predicate %s is not boolean", pred)
		}
		sel := make([]int32, 0, data.CountTrue(c.B))
		for i, keep := range c.B {
			if keep {
				sel = append(sel, int32(i))
			}
		}
		return sel, nil
	}}
}

// Next returns the next batch.
func (s *Scan) Next() (*data.Table, error) {
	defer startTimer(&s.stats)()
	for {
		if s.part >= len(s.Table.Parts) || (s.PartIndex >= 0 && s.part > s.PartIndex) {
			return nil, nil
		}
		p := s.Table.Parts[s.part]
		if s.offset == 0 {
			read, err := s.enter(s.part)
			if err != nil {
				return nil, err
			}
			if !read {
				s.part++
				continue
			}
			if p.Chunked != nil {
				s.cache = data.NewChunkCache()
			}
		}
		n := p.NumRows()
		if s.offset >= n {
			s.part++
			s.offset = 0
			continue
		}
		lo := s.offset
		s.offset = min(lo+s.BatchSize, n)
		if b, err := s.readBatch(s.part, lo, s.offset, s.cache, &s.stats); b != nil || err != nil {
			return b, err
		}
	}
}

// readBatch is the one scan body: it produces the qualified batch for rows
// [lo, hi) of partition part, counting into st, or nil when no row is left
// to emit. The serial cursor and the exchange tasks both call it, each
// with a ChunkCache of its own, so a forward walk decodes a chunk once.
//
// Chunk-backed batches stay cut at BatchSize boundaries — never at chunk
// boundaries — so the batch stream is the in-memory scan's with the rows
// the zone predicates exclude taken out, and order-sensitive folds
// downstream see the same boundaries (the byte-identity contract). The
// zone predicates exclude whole chunks by their zone maps and, within the
// live chunks, every row that fails one of them (data.RowFilter): a batch
// carries exactly the live rows of [lo, hi) that satisfy every predicate.
// What is dropped, the Filter the predicates were copied from would have
// dropped, so the Filter passes the same rows in the same batches. Rows
// counts every row of [lo, hi) in a live chunk, kept or not, because the
// predicate columns of those rows are decoded and read.
func (s *Scan) readBatch(part, lo, hi int, cache *data.ChunkCache, st *OpStats) (*data.Table, error) {
	p := s.Table.Parts[part]
	var batch *data.Table
	if p.Chunked != nil {
		v := s.views[part]
		before := cache.Decodes()
		dec, err := v.Range(lo, hi, cache)
		st.ChunksDecoded += int64(cache.Decodes() - before)
		if err != nil {
			return nil, err
		}
		st.Rows += int64(v.LiveRows(lo, hi))
		if dec == nil {
			return nil, nil
		}
		batch = dec
	} else {
		src := p.Table
		if s.Cols != nil {
			var err error
			src, err = src.Project(s.Cols)
			if err != nil {
				return nil, err
			}
		}
		batch = src.Slice(lo, hi)
		st.Rows += int64(batch.NumRows())
	}
	// Qualify output names.
	out, err := data.NewTable(s.Table.Name)
	if err != nil {
		return nil, err
	}
	for _, c := range batch.Cols {
		qc := *c
		qc.Name = s.qualify(c.Name)
		if err := out.AddColumn(&qc); err != nil {
			return nil, err
		}
		st.BytesRead += qc.ByteSize()
	}
	st.Batches++
	return out, nil
}

// Close is a no-op.
func (s *Scan) Close() error { return nil }

// Stats returns the scan statistics.
func (s *Scan) Stats() *OpStats { return &s.stats }

// Children returns no children (scans are leaves).
func (s *Scan) Children() []Operator { return nil }

// Filter keeps rows for which Pred evaluates to true. It is also the HAVING
// clause, evaluated above the aggregation breaker where group keys and
// aggregate outputs exist as columns.
type Filter struct {
	Child Operator
	Pred  Expr

	stats OpStats
}

// Columns returns the child's columns.
func (f *Filter) Columns() []string { return f.Child.Columns() }

// Open opens the child.
func (f *Filter) Open(env *Env) error {
	f.stats = OpStats{Name: "Filter(" + f.Pred.String() + ")"}
	return f.Child.Open(env)
}

// Next filters the next non-empty batch. All-true masks pass the batch
// through unchanged (zero-copy) and all-false batches are skipped without
// materializing an empty table. A zero-row child batch (an empty grouped
// result, say) is skipped without evaluating row kernels, so empty inputs
// can never panic the predicate.
func (f *Filter) Next() (*data.Table, error) {
	defer startTimer(&f.stats)()
	for {
		b, err := f.Child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		if b.NumRows() == 0 {
			continue
		}
		c, err := f.Pred.Eval(b)
		if err != nil {
			return nil, err
		}
		if c.Type != data.Bool {
			return nil, fmt.Errorf("relational: filter predicate %s is not boolean", f.Pred)
		}
		n := data.CountTrue(c.B)
		f.stats.Batches++
		if n == 0 {
			continue
		}
		f.stats.Rows += int64(n)
		if n == len(c.B) && b.NumRows() == n {
			return b, nil
		}
		return b.FilterCount(c.B, n), nil
	}
}

// Close closes the child.
func (f *Filter) Close() error { return f.Child.Close() }

// Stats returns the filter statistics.
func (f *Filter) Stats() *OpStats { return &f.stats }

// Children returns the single child.
func (f *Filter) Children() []Operator { return []Operator{f.Child} }

// HavingFilter exists only so that callers written against the former
// separate HAVING operator — the type switch of the frozen
// bench/e2e/trace.go — still compile: HAVING is now a Filter, and nothing
// builds this type.
type HavingFilter struct{ Filter }

// NamedExpr pairs an output name with the expression computing it.
type NamedExpr struct {
	Name string
	E    Expr
}

// Project computes one column per expression.
type Project struct {
	Child Operator
	Exprs []NamedExpr

	stats OpStats
}

// Columns returns the projected names.
func (p *Project) Columns() []string {
	out := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		out[i] = e.Name
	}
	return out
}

// Open opens the child.
func (p *Project) Open(env *Env) error {
	p.stats = OpStats{Name: fmt.Sprintf("Project(%d exprs)", len(p.Exprs))}
	return p.Child.Open(env)
}

// Next projects the next batch.
func (p *Project) Next() (*data.Table, error) {
	defer startTimer(&p.stats)()
	b, err := p.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	out, err := data.NewTable(b.Name)
	if err != nil {
		return nil, err
	}
	for _, ne := range p.Exprs {
		c, err := ne.E.Eval(b)
		if err != nil {
			return nil, err
		}
		cc := *c
		cc.Name = ne.Name
		if err := out.AddColumn(&cc); err != nil {
			return nil, err
		}
	}
	p.stats.Rows += int64(out.NumRows())
	p.stats.Batches++
	return out, nil
}

// Close closes the child.
func (p *Project) Close() error { return p.Child.Close() }

// Stats returns the project statistics.
func (p *Project) Stats() *OpStats { return &p.stats }

// Children returns the single child.
func (p *Project) Children() []Operator { return []Operator{p.Child} }

// HashJoin is an inner equi-join: the right (build) side is drained into a
// hash table at Open (see joinBuild), the left (probe) side streams against
// it. Join keys may be Int64, String or Float64 columns. Output follows
// probe row order, each row expanded by its matches in ascending build row
// order.
//
// The same operator is the chain operator of an exchange segment: when
// Parallelize moves a join below an Exchange, the template (Right != nil)
// builds once at Open, on the query thread, indexing with up to DOP workers,
// and each worker clone (Right == nil) probes its own Left chain against
// that shared, immutable build. The exchange re-emits probe batches in
// morsel order, so the join is byte-identical at any DOP.
type HashJoin struct {
	Left, Right       Operator
	LeftKey, RightKey string

	// dop bounds the workers that index the build side; Parallelize sets
	// it on the joins it moves into an exchange segment.
	dop int
	// rightCols names the build columns on worker clones, which hold no
	// Right.
	rightCols []string
	stats     OpStats
	build     *joinBuild // shared by worker clones, immutable once built
}

// Columns returns left columns followed by right columns.
func (j *HashJoin) Columns() []string {
	return append(append([]string{}, j.Left.Columns()...), j.buildColumns()...)
}

func (j *HashJoin) buildColumns() []string {
	if j.Right == nil {
		return j.rightCols
	}
	return j.Right.Columns()
}

// Open opens the probe side and — unless this is a worker clone — drains
// the build side and indexes it by key. The build survives Close, since an
// exchange clones its template's workers after closing it. Drain does not
// Close a tree whose Open failed, so every error path here closes what this
// operator already opened — otherwise a failed build would strand child
// resources (e.g. checked-out ML sessions under either side).
func (j *HashJoin) Open(env *Env) (err error) {
	name := "HashJoin"
	if j.dop > 1 {
		name = "ParallelHashJoin"
	}
	j.stats = OpStats{Name: fmt.Sprintf("%s(%s=%s)", name, j.LeftKey, j.RightKey)}
	defer startTimer(&j.stats)()
	if err := j.Left.Open(env); err != nil {
		return err
	}
	if j.Right == nil {
		return nil
	}
	if err := j.Right.Open(env); err != nil {
		j.Left.Close()
		return err
	}
	if j.build, err = openBuild(env.orZero(), j.Right, j.RightKey, j.dop, &j.stats); err != nil {
		j.Left.Close()
		j.Right.Close()
	}
	return err
}

// Next probes the next left batch against the build table.
func (j *HashJoin) Next() (*data.Table, error) {
	defer startTimer(&j.stats)()
	for {
		b, err := j.Left.Next()
		if err != nil || b == nil {
			return nil, err
		}
		out, err := probeJoinBatch(b, j.LeftKey, j.build)
		if err != nil {
			return nil, err
		}
		if out == nil {
			continue
		}
		j.stats.Rows += int64(out.NumRows())
		j.stats.Batches++
		return out, nil
	}
}

// Close closes the probe side and, outside worker clones, the build side.
func (j *HashJoin) Close() error {
	err := j.Left.Close()
	if j.Right != nil {
		if rerr := j.Right.Close(); err == nil {
			err = rerr
		}
	}
	return err
}

// Stats returns the join statistics.
func (j *HashJoin) Stats() *OpStats { return &j.stats }

// Children returns the probe side and, outside worker clones, the build
// side.
func (j *HashJoin) Children() []Operator {
	if j.Right == nil {
		return []Operator{j.Left}
	}
	return []Operator{j.Left, j.Right}
}

// ChainChild implements chainOp: an exchange segment continues through the
// probe side; the build side is private to the operator.
func (j *HashJoin) ChainChild() Operator { return j.Left }

// CloneWorker implements ParallelOp: the clone probes its own chain against
// the template's build.
func (j *HashJoin) CloneWorker(child Operator) (Operator, error) {
	if j.build == nil {
		return nil, fmt.Errorf("relational: hash join %s=%s cloned before its build side was drained",
			j.LeftKey, j.RightKey)
	}
	return &HashJoin{Left: child, LeftKey: j.LeftKey, RightKey: j.RightKey, dop: j.dop,
		rightCols: j.buildColumns(), build: j.build}, nil
}

// AbsorbWorker merges a worker clone's statistics.
func (j *HashJoin) AbsorbWorker(clone Operator) { j.stats.Absorb(clone.Stats()) }

// AggFn enumerates aggregate functions.
type AggFn uint8

// Aggregate function kinds.
const (
	AggCount AggFn = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// AggSpec is one aggregate output.
type AggSpec struct {
	Fn  AggFn
	Col string // ignored for COUNT
	As  string
}

// Union streams its children one after another (used to stitch
// per-partition plans together).
type Union struct {
	Inputs []Operator

	stats OpStats
	cur   int
}

// Columns returns the first child's columns.
func (u *Union) Columns() []string { return u.Inputs[0].Columns() }

// Open opens all children; on error the already-opened prefix is closed
// (a child whose Open failed has cleaned up after itself).
func (u *Union) Open(env *Env) error {
	u.stats = OpStats{Name: "Union"}
	u.cur = 0
	for i, in := range u.Inputs {
		if err := in.Open(env); err != nil {
			for _, opened := range u.Inputs[:i] {
				opened.Close()
			}
			return err
		}
	}
	return nil
}

// Next pulls from the current child, advancing when it is exhausted.
func (u *Union) Next() (*data.Table, error) {
	defer startTimer(&u.stats)()
	for u.cur < len(u.Inputs) {
		b, err := u.Inputs[u.cur].Next()
		if err != nil {
			return nil, err
		}
		if b != nil {
			u.stats.Rows += int64(b.NumRows())
			u.stats.Batches++
			return b, nil
		}
		u.cur++
	}
	return nil, nil
}

// Close closes all children.
func (u *Union) Close() error {
	var first error
	for _, in := range u.Inputs {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats returns the union statistics.
func (u *Union) Stats() *OpStats { return &u.stats }

// Children returns all children.
func (u *Union) Children() []Operator { return u.Inputs }

// Drain runs an operator tree to completion in the zero environment,
// concatenating all batches into one table.
func Drain(root Operator) (*data.Table, error) {
	return DrainEnv(nil, root)
}

// DrainEnv is Drain under env — the engine's terminal step: the tree opens
// with env, and env.Ctx is polled once per output batch, so a canceled
// query stops within one batch of coordinator work. An operator whose Open
// fails must have released its own resources — DrainEnv does not Close a
// tree that never opened (Close on a half-constructed tree is not safe in
// general).
func DrainEnv(env *Env, root Operator) (*data.Table, error) {
	if err := root.Open(env); err != nil {
		return nil, err
	}
	defer root.Close()
	out, err := drainConcat(env.orZero().Ctx, root, true)
	if err == nil && out == nil {
		// Zero batches: an empty result carrying the plan's real column
		// types.
		out, err = emptyOf(root)
	}
	return out, err
}

// pull polls ctx, then returns child's next batch. Every breaker drains its
// input through it, so a canceled query stops within one batch of work; a
// nil ctx — inside exchange tasks, which poll per morsel — skips the check.
func pull(ctx context.Context, child Operator) (*data.Table, error) {
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	return child.Next()
}

// drainConcat drains an opened operator into one table in stream order,
// nil when it produced no batch, pulling under ctx. A lone batch comes back
// as is, so the common one-batch input pays no copy; the first batch is
// cloned only when a second must be appended to it, because it may be a
// view of shared storage. own clones a lone batch too, for callers that
// hand the table on as their own.
func drainConcat(ctx context.Context, child Operator, own bool) (*data.Table, error) {
	var first, all *data.Table
	for {
		b, err := pull(ctx, child)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		switch {
		case first == nil:
			first = b
			continue
		case all == nil:
			all = first.Clone()
		}
		if err := all.AppendFrom(b); err != nil {
			return nil, err
		}
	}
	if all == nil && own && first != nil {
		all = first.Clone()
	}
	if all == nil {
		return first, nil
	}
	return all, nil
}

// CollectStats walks the operator tree and returns every operator's stats
// in pre-order.
func CollectStats(root Operator) []*OpStats {
	var out []*OpStats
	var rec func(op Operator)
	rec = func(op Operator) {
		out = append(out, op.Stats())
		for _, c := range op.Children() {
			rec(c)
		}
	}
	rec(root)
	return out
}
