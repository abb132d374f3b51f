package relational

import (
	"fmt"
	"sync"

	"raven/internal/data"
	"raven/internal/fault"
	"raven/internal/sched"
)

// This file implements morsel-driven parallel execution: partitioned scans
// are split into fixed-size morsels (partition, row-range) whose tasks run
// on the shared engine-level scheduler (internal/sched) — one fixed worker
// pool multiplexing tasks from every running query. A task is one morsel
// of an in-memory partition, or every morsel that starts in one chunk of a
// chunk-backed partition, so the chunk is decoded once. Each task drives a
// private clone of the partition-parallel operator chain
// (Filter/Project/Predict) checked out from the exchange's clone set.
// Results are merged back in morsel order at the Exchange, so parallel
// plans produce byte-identical output to serial ones and the operators
// above the Exchange stay oblivious — at any DOP and any concurrency level.
// A pipeline breaker above an exchange folds the partials its partial step
// (PartialGroupAggregate, PartialSort) computed in the workers, in that
// same order, exactly as it folds the partials it computes inline from
// serial input batches.

// Morsel is one batch of parallel work: a row range of one partition, and
// one result slot of the exchange.
type Morsel struct {
	Part   int
	Lo, Hi int
	// Chunk is the index of the chunk holding row Lo when the partition is
	// chunk-backed, -1 when it is in memory. Consecutive morsels with the
	// same Part and Chunk >= 0 run as one exchange task.
	Chunk int
}

// ParallelOp is implemented by operators that can replicate across
// exchange workers. CloneWorker returns a fresh instance reading from the
// given child, sharing only immutable state (predicates, pipelines,
// compiled programs) with the original; AbsorbWorker folds a finished
// clone's statistics back into the template. AbsorbWorker is only called
// after all workers have joined, so it needs no synchronization.
type ParallelOp interface {
	Operator
	CloneWorker(child Operator) (Operator, error)
	AbsorbWorker(clone Operator)
}

// serialOnly is an optional refinement: a ParallelOp can veto
// parallelization for configurations with serial semantics (e.g. the
// MADlib materialized-featurization mode).
type serialOnly interface {
	CanParallelize() bool
}

// chainOp is implemented by chain operators whose morsel flow passes
// through one designated child (the HashJoin's probe side); other children
// (the build side) are private to the operator and not part of the
// exchange segment.
type chainOp interface {
	ChainChild() Operator
}

// chainChild returns the operator an exchange segment continues through
// below op: a chain operator's designated child, or op's only child.
func chainChild(op Operator) (Operator, bool) {
	if co, ok := op.(chainOp); ok {
		return co.ChainChild(), true
	}
	if ch := op.Children(); len(ch) == 1 {
		return ch[0], true
	}
	return nil, false
}

// Absorb adds the clone's counters into s (single-threaded merge after the
// exchange workers join). WallNs becomes aggregate across-worker CPU time,
// which exceeds elapsed wall time for parallel segments; the engine charges
// the Exchange's own measured wall time instead of summing worker time.
func (s *OpStats) Absorb(o *OpStats) {
	s.Rows += o.Rows
	s.Batches += o.Batches
	s.WallNs += o.WallNs
	s.BytesRead += o.BytesRead
	s.SpillBytes += o.SpillBytes
	s.ChunksDecoded += o.ChunksDecoded
	s.ChunksSkipped += o.ChunksSkipped
}

// CloneWorker returns a filter clone sharing the (immutable) predicate.
func (f *Filter) CloneWorker(child Operator) (Operator, error) {
	return &Filter{Child: child, Pred: f.Pred}, nil
}

// AbsorbWorker merges a worker filter's stats.
func (f *Filter) AbsorbWorker(clone Operator) { f.stats.Absorb(clone.Stats()) }

// CloneWorker returns a project clone sharing the (immutable) expressions.
func (p *Project) CloneWorker(child Operator) (Operator, error) {
	return &Project{Child: child, Exprs: p.Exprs}, nil
}

// AbsorbWorker merges a worker project's stats.
func (p *Project) AbsorbWorker(clone Operator) { p.stats.Absorb(clone.Stats()) }

// Morsels splits the scan into row-range morsels of at most size rows,
// applying zone-map pruning and the PartIndex restriction exactly like the
// serial scan (both go through enter), and records pruned partitions and
// chunks in the scan's counters. A morsel whose rows all lie in excluded
// chunks is not produced, just as the serial scan emits no batch for it.
func (s *Scan) Morsels(size int) ([]Morsel, error) {
	if size <= 0 {
		size = 10000
	}
	var out []Morsel
	for pi, p := range s.Table.Parts {
		if s.PartIndex >= 0 && pi != s.PartIndex {
			continue
		}
		read, err := s.enter(pi)
		if err != nil {
			return nil, err
		}
		if !read {
			continue
		}
		n := p.NumRows()
		for lo := 0; lo < n; lo += size {
			m := Morsel{Part: pi, Lo: lo, Hi: min(lo+size, n), Chunk: -1}
			if p.Chunked != nil {
				if s.views[pi].LiveRows(m.Lo, m.Hi) == 0 {
					continue
				}
				m.Chunk = p.Chunked.ChunkOf(lo)
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// MorselBatch produces the batch for one morsel (nil when zone maps
// excluded all of it), accumulating statistics into st: each worker owns a
// private OpStats, absorbed after the join, and each task a private
// ChunkCache — workers share only the scan's immutable reading plan.
// Morsel boundaries are the same fixed row ranges as the serial batch
// boundaries, which keeps parallel results byte-identical.
func (s *Scan) MorselBatch(m Morsel, cache *data.ChunkCache, st *OpStats) (*data.Table, error) {
	defer startTimer(st)()
	return s.readBatch(m.Part, m.Lo, m.Hi, cache, st)
}

// BatchSource is a single-batch leaf: it yields the batch last handed to
// Load, then reports end-of-stream until reloaded. Each exchange worker
// chain reads its morsels through one.
type BatchSource struct {
	cols  []string
	batch *data.Table
	stats OpStats
}

func (b *BatchSource) Columns() []string    { return b.cols }
func (b *BatchSource) Open(*Env) error      { return nil }
func (b *BatchSource) Close() error         { return nil }
func (b *BatchSource) Stats() *OpStats      { return &b.stats }
func (b *BatchSource) Children() []Operator { return nil }

// Load sets the batch the next Next call yields.
func (b *BatchSource) Load(t *data.Table) { b.batch = t }

// Next yields the loaded batch once.
func (b *BatchSource) Next() (*data.Table, error) {
	t := b.batch
	b.batch = nil
	return t, nil
}

// seqBatch is a worker result tagged with its morsel sequence number; nil
// tables mark morsels the chain filtered out entirely.
type seqBatch struct {
	seq int64
	t   *data.Table
	err error
}

// task is one scheduled unit of exchange work: the run of consecutive
// morsels [first, first+n), each of which it owes one result slot.
type task struct{ first, n int }

// tasksOf cuts the morsel queue into tasks: an in-memory morsel is a task
// of its own; consecutive morsels starting in the same chunk of a
// chunk-backed partition share one, so the task decodes that chunk once
// (a morsel straddling into the next chunk stays with the chunk it starts
// in).
func tasksOf(morsels []Morsel) []task {
	out := make([]task, 0, len(morsels))
	for i, m := range morsels {
		if i > 0 && m.Chunk >= 0 && m.Chunk == morsels[i-1].Chunk && m.Part == morsels[i-1].Part {
			out[len(out)-1].n++
			continue
		}
		out = append(out, task{first: i, n: 1})
	}
	return out
}

// worker is one exchange worker: a private clone of the operator chain
// plus private scan statistics.
type worker struct {
	root      Operator
	src       *BatchSource
	clones    []Operator // aligned with Exchange.chain (root-first)
	scanStats OpStats
}

// Exchange executes a partition-parallel operator segment — a chain of
// ParallelOp operators over a partitioned Scan — as tasks of one or more
// morsels on the shared scheduler, at most DOP of them in flight. Batches
// are re-emitted in morsel order, so downstream operators observe exactly
// the serial batch stream. The Template chain is never executed directly;
// it is cloned DOP times (one clone chain per concurrently running task)
// and kept as the merge target for statistics (its post-run WallNs is
// aggregate across-task CPU time, while the Exchange's own stats carry
// the measured parallel wall time).
//
// Flow control replaces a dedicated worker pool's ticket loop with
// drip-feed submission: at most `window` tasks are ever submitted ahead of
// consumption (the initial burst, then one new submission per task whose
// last slot Next consumes), and the result channel has capacity for every
// slot of the whole window — so a task's result send NEVER blocks and
// tasks never wait on each other, keeping the fixed shared pool
// deadlock-free.
//
// The environment it is opened with supplies the scheduler, and its
// context is polled at every morsel boundary: once per Next call on the
// consumer side, and before every morsel of every scheduled task — so a
// canceled query both stops emitting batches and releases its shared-pool
// worker slots within one morsel of work.
type Exchange struct {
	Template   Operator
	DOP        int
	MorselSize int

	env     *Env
	stats   OpStats
	scan    *Scan
	chain   []ParallelOp // template ops root-first, excluding the scan
	morsels []Morsel
	tasks   []task
	out     chan seqBatch
	job     *sched.Job
	// idle holds the clone chains not currently executing a task. The
	// job's parallelism cap equals len(workers), so a starting task always
	// finds an idle clone.
	idleMu  sync.Mutex
	idle    []*worker
	absorbO sync.Once
	workers []*worker
	// started marks the job as registered. Tasks are submitted lazily on
	// the first Next so that a failure while Opening a sibling operator
	// (e.g. a hash-join build side erroring after this exchange opened)
	// cannot leak scheduled work — an opened-but-never-pulled exchange
	// holds no scheduler resources.
	started bool
	// submitted counts tasks handed to the scheduler and head is the task
	// owning nextSeq; window bounds submitted-minus-head, so at most the
	// results of window tasks are buffered.
	submitted int
	head      int
	window    int
	pending   map[int64]*data.Table
	nextSeq   int64
	failed    error
}

// NewExchange wraps a parallelizable segment: a chain of single-child
// ParallelOps (plus HashJoins, whose probe child continues the chain)
// ending at a Scan, as validated and prepared by the rewrite's
// segmentable + chainify pair.
func NewExchange(segment Operator, dop, morselSize int) *Exchange {
	return &Exchange{Template: segment, DOP: dop, MorselSize: morselSize}
}

// Columns returns the segment's output columns.
func (e *Exchange) Columns() []string { return e.Template.Columns() }

// Children returns the template segment so plan walks (statistics
// collection, boundary accounting) see the logical operators inside.
func (e *Exchange) Children() []Operator { return []Operator{e.Template} }

// Stats returns the exchange statistics; WallNs is the measured parallel
// wall time of the whole segment.
func (e *Exchange) Stats() *OpStats { return &e.stats }

// Open builds the morsel queue, clones the chain per worker and starts the
// worker pool.
func (e *Exchange) Open(env *Env) error {
	e.stats = OpStats{Name: fmt.Sprintf("Exchange(dop=%d)", e.DOP)}
	defer startTimer(&e.stats)()
	e.env = env.orZero()
	if err := e.Template.Open(env); err != nil {
		return err
	}
	e.chain, e.scan = nil, nil
	for op := e.Template; ; {
		if s, ok := op.(*Scan); ok {
			e.scan = s
			break
		}
		p, ok := op.(ParallelOp)
		if !ok {
			e.Template.Close()
			return fmt.Errorf("relational: exchange segment has non-parallel operator %T", op)
		}
		next, ok := chainChild(op)
		if !ok {
			e.Template.Close()
			return fmt.Errorf("relational: exchange segment operator %T has no chain child", op)
		}
		e.chain = append(e.chain, p)
		op = next
	}
	// Release template-held resources (e.g. the ML session it initialized)
	// back to shared pools so the first worker clone reuses them.
	if err := e.Template.Close(); err != nil {
		return err
	}
	var err error
	if e.morsels, err = e.scan.Morsels(e.MorselSize); err != nil {
		return err
	}
	e.tasks = tasksOf(e.morsels)
	e.pending = make(map[int64]*data.Table)
	e.nextSeq = 0
	e.submitted, e.head = 0, 0
	e.failed = nil
	e.job = nil
	e.absorbO = sync.Once{}
	// The reorder window bounds buffered results under skew: at most
	// window tasks are outstanding, and the channel holds every slot of
	// the whole window so task sends never block.
	e.window = e.DOP * 4
	slots := 1
	for _, t := range e.tasks {
		slots = max(slots, t.n)
	}
	e.out = make(chan seqBatch, e.window*slots)
	e.workers = e.workers[:0]
	// failWorkers closes the chains already opened for earlier workers,
	// returning their pooled resources (ML sessions) on a partial failure.
	failWorkers := func(err error) error {
		for _, w := range e.workers {
			w.root.Close()
		}
		e.workers = e.workers[:0]
		return err
	}
	for i := 0; i < e.DOP; i++ {
		w := &worker{src: &BatchSource{cols: e.scan.Columns()}}
		w.scanStats = OpStats{Name: e.scan.stats.Name}
		var op Operator = w.src
		w.clones = make([]Operator, len(e.chain))
		for j := len(e.chain) - 1; j >= 0; j-- {
			var err error
			op, err = e.chain[j].CloneWorker(op)
			if err != nil {
				return failWorkers(err)
			}
			w.clones[j] = op
		}
		w.root = op
		if err := w.root.Open(env); err != nil {
			return failWorkers(err)
		}
		e.workers = append(e.workers, w)
	}
	e.idle = append(e.idle[:0], e.workers...)
	e.started = false
	return nil
}

// start registers the job and submits the initial task window (first
// Next call).
func (e *Exchange) start() {
	e.started = true
	e.job = e.env.Scheduler().NewJob(len(e.workers))
	for i := 0; i < e.window; i++ {
		e.submitTask()
	}
}

// submitTask schedules the next unsubmitted task, if any. The task checks
// a clone chain out of the idle set (never empty: the job cap equals the
// clone count), runs its morsels through it in order, and delivers one
// result per morsel on the buffered channel (never blocks: outstanding
// slots are bounded by the window, which sized the channel).
func (e *Exchange) submitTask() {
	if e.submitted >= len(e.tasks) {
		return
	}
	t := e.tasks[e.submitted]
	e.submitted++
	e.job.Submit(func() { e.runTask(t) })
}

// runTask drives the task's morsels through one checked-out clone chain.
// The sends stay outside runMorsel's recover scope: whatever happens inside
// a morsel — error, cancellation, panic — every sequence slot the task owns
// is delivered (the slots after a failure repeat its error), so the
// consumer can never block on a lost result. The deferred idle-return keeps
// the clone set intact even after a panic (the poisoned query is failing
// anyway — its remaining tasks are about to be canceled, and a reused
// clone's output can never surface, because batches are consumed strictly
// in sequence order and the first error stops consumption).
func (e *Exchange) runTask(t task) {
	e.idleMu.Lock()
	w := e.idle[len(e.idle)-1]
	e.idle = e.idle[:len(e.idle)-1]
	e.idleMu.Unlock()
	defer func() {
		e.idleMu.Lock()
		e.idle = append(e.idle, w)
		e.idleMu.Unlock()
	}()
	var cache *data.ChunkCache
	if e.morsels[t.first].Chunk >= 0 {
		cache = data.NewChunkCache()
	}
	var err error
	for i := t.first; i < t.first+t.n; i++ {
		var b *data.Table
		if err == nil {
			b, err = e.runMorsel(w, t, i, cache)
		}
		e.out <- seqBatch{seq: int64(i), t: b, err: err}
	}
}

// runMorsel drives morsel i of task t through the worker's chain, behind
// the task's cancellation check and panic boundary. A panic anywhere in
// the chain becomes this query's *PanicError instead of killing the shared
// scheduler worker. Cancellation is polled before every morsel, so a
// multi-morsel task reacts within one batch of work like any other.
func (e *Exchange) runMorsel(w *worker, t task, i int, cache *data.ChunkCache) (b *data.Table, err error) {
	defer RecoverPanic("exchange morsel", &err)
	if i == t.first {
		if err := fault.Inject(fault.SiteSchedTask); err != nil {
			return nil, err
		}
	}
	if err := canceled(e.env.Ctx); err != nil {
		return nil, err
	}
	if err := fault.Inject(fault.SiteExchangeMorsel); err != nil {
		return nil, err
	}
	return e.execMorsel(w, e.morsels[i], cache)
}

// execMorsel drives the worker's chain over one morsel and returns the
// (possibly nil) result batch.
func (e *Exchange) execMorsel(w *worker, m Morsel, cache *data.ChunkCache) (*data.Table, error) {
	batch, err := e.scan.MorselBatch(m, cache, &w.scanStats)
	if err != nil {
		return nil, err
	}
	w.src.Load(batch)
	return drainConcat(nil, w.root, false)
}

// Next returns the next non-empty batch in morsel order. The query's
// context is polled on every call (even when the reorder window already
// holds results), so cancellation reaction is bounded by one output batch
// of coordinator work.
func (e *Exchange) Next() (*data.Table, error) {
	defer startTimer(&e.stats)()
	if e.failed != nil {
		return nil, e.failed
	}
	if err := canceled(e.env.Ctx); err != nil {
		return nil, e.fail(err)
	}
	if !e.started {
		e.start()
	}
	for {
		if t, ok := e.pending[e.nextSeq]; ok {
			delete(e.pending, e.nextSeq)
			e.nextSeq++
			// Consuming a task's last slot frees one window slot: drip-feed
			// the next task to the scheduler.
			if h := e.tasks[e.head]; e.nextSeq == int64(h.first+h.n) {
				e.head++
				e.submitTask()
			}
			if t != nil && t.NumRows() > 0 {
				e.stats.Rows += int64(t.NumRows())
				e.stats.Batches++
				return t, nil
			}
			continue
		}
		if e.nextSeq >= int64(len(e.morsels)) {
			e.finish()
			return nil, nil
		}
		var sb seqBatch
		if ctx := e.env.Ctx; ctx != nil && ctx.Done() != nil {
			// Don't block on a slow morsel after cancellation: the done
			// branch fails the query immediately; the in-flight task still
			// delivers into the buffered channel and is discarded by Close.
			select {
			case sb = <-e.out:
			case <-ctx.Done():
				return nil, e.fail(ctx.Err())
			}
		} else {
			sb = <-e.out
		}
		if sb.err != nil {
			return nil, e.fail(sb.err)
		}
		e.pending[sb.seq] = sb.t
	}
}

// fail records the terminal error, drops queued scheduler tasks and
// returns the error (Next's error paths share it).
func (e *Exchange) fail(err error) error {
	e.failed = err
	e.stop()
	return err
}

// stop drops the exchange's queued scheduler tasks; in-flight tasks finish
// into the buffered channel.
func (e *Exchange) stop() {
	if e.job != nil {
		e.job.Cancel()
	}
}

// finish waits for the exchange's scheduler job to go quiescent and merges
// the clone statistics into the template chain exactly once.
func (e *Exchange) finish() {
	if e.job != nil {
		e.job.Wait()
	}
	e.absorb()
}

// absorb merges the clone statistics into the template chain exactly once.
// Callers must ensure no task is running (job waited or drained).
func (e *Exchange) absorb() {
	e.absorbO.Do(func() {
		for _, w := range e.workers {
			e.scan.stats.Absorb(&w.scanStats)
			for i, p := range e.chain {
				p.AbsorbWorker(w.clones[i])
			}
		}
	})
}

// Close cancels queued morsels, waits for in-flight tasks to complete
// (Job.Drain — a still-running morsel must never race the clone chains
// being closed below), merges statistics and closes the clone chains.
func (e *Exchange) Close() error {
	if e.job != nil {
		e.job.Drain()
	}
	e.absorb()
	var first error
	for _, w := range e.workers {
		if err := w.root.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// segmentable reports whether op roots an exchange-compatible segment: a
// chain of ParallelOps ending at a Scan, each continuing through its only
// child or — a hash join — its probe side (the join build side is
// materialized at Open and may be any subplan).
func segmentable(op Operator) bool {
	if _, ok := op.(*Scan); ok {
		return true
	}
	if _, ok := op.(ParallelOp); !ok {
		return false
	}
	if so, ok := op.(serialOnly); ok && !so.CanParallelize() {
		return false
	}
	next, ok := chainChild(op)
	return ok && segmentable(next)
}

// chainify prepares a segmentable segment for execution inside an
// exchange: every hash join on the chain gets its build side rewritten —
// the build is drained on the query thread at Open and parallelizes on its
// own — and indexes it with up to c.dop workers.
func chainify(op Operator, c rwConf) error {
	for {
		if j, ok := op.(*HashJoin); ok {
			var err error
			if j.Right, err = rewrite(j.Right, c); err != nil {
				return err
			}
			j.dop = c.dop
		}
		next, ok := chainChild(op)
		if !ok {
			return nil
		}
		op = next
	}
}

// Parallelize rewrites a physical plan for real data-parallel execution
// at the given DOP: every maximal partition-parallel segment big enough
// to split (more rows than one morsel) is wrapped in an Exchange. The
// pipeline breakers scale too: hash joins move into the segment and probe
// inside the exchange workers against one shared build, and the partial
// step of the aggregation (global or grouped) and of the sort moves below
// an exchange (PartialGroupAggregate, PartialSort) while the breaker itself
// stays above it, folding the partials in morsel order. Materializations
// and unions stay serial but pull from parallel children. The scheduler,
// context and budget come from the environment the plan is opened with.
// dop <= 1 returns the plan unchanged.
func Parallelize(root Operator, dop, morselSize int) (Operator, error) {
	if dop <= 1 {
		return root, nil
	}
	if morselSize <= 0 {
		morselSize = 10000
	}
	return rewrite(root, rwConf{dop: dop, morselSize: morselSize})
}

// rwConf carries the parallel rewrite's configuration.
type rwConf struct {
	dop        int
	morselSize int
}

// exchangeSegment wraps op in an Exchange when it roots a segment whose
// probe-most scan is big enough to split; ok reports whether it did.
func exchangeSegment(op Operator, c rwConf) (Operator, bool, error) {
	if !segmentable(op) {
		return nil, false, nil
	}
	s, err := scanOf(op)
	if err != nil {
		return nil, false, err
	}
	if s.Table.NumRows() <= c.morselSize {
		return nil, false, nil
	}
	if err := chainify(op, c); err != nil {
		return nil, false, err
	}
	return NewExchange(op, c.dop, c.morselSize), true, nil
}

// splitBreaker moves a breaker's partial step below an exchange when the
// breaker's input *child is a big-enough segment, making the exchange the
// new input; otherwise it rewrites the input in place.
func splitBreaker(child *Operator, partial Operator, c rwConf) (bool, error) {
	seg, ok, err := exchangeSegment(partial, c)
	if ok {
		*child = seg
	} else if err == nil {
		*child, err = rewrite(*child, c)
	}
	return ok, err
}

func rewrite(op Operator, c rwConf) (Operator, error) {
	if ex, ok, err := exchangeSegment(op, c); err != nil {
		return nil, err
	} else if ok {
		return ex, nil
	}
	var err error
	switch o := op.(type) {
	case *Filter:
		o.Child, err = rewrite(o.Child, c)
	case *Project:
		o.Child, err = rewrite(o.Child, c)
	case *HashJoin:
		if o.Left, err = rewrite(o.Left, c); err != nil {
			return nil, err
		}
		o.Right, err = rewrite(o.Right, c)
	case *GroupAggregate:
		// Per-worker grouped accumulators (dense arrays or hash tables;
		// one identity group without keys).
		o.exchanged, err = splitBreaker(&o.Child, &PartialGroupAggregate{
			Child: o.Child, Keys: o.Keys, Aggs: o.Aggs,
		}, c)
	case *Sort:
		// Per-worker sorted runs, one per morsel, cut to the Offset+Limit
		// window.
		o.exchanged, err = splitBreaker(&o.Child, &PartialSort{
			Child: o.Child, Keys: o.Keys, Limit: fetchRows(o.Limit, o.Offset),
		}, c)
	case *Limit:
		// LIMIT consumes the morsel-ordered batch stream serially; the
		// cutoff is deterministic because that stream equals the serial
		// one.
		o.Child, err = rewrite(o.Child, c)
	case *Union:
		for i, in := range o.Inputs {
			if o.Inputs[i], err = rewrite(in, c); err != nil {
				return nil, err
			}
		}
	default:
		// Operators from other packages (PredictOp, DNNOp) sit above a
		// non-parallelizable child: rebuild them over the rewritten child
		// via their worker-clone hook.
		if p, ok := op.(ParallelOp); ok && len(p.Children()) == 1 {
			child, err := rewrite(p.Children()[0], c)
			if err != nil {
				return nil, err
			}
			if child != p.Children()[0] {
				return p.CloneWorker(child)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return op, nil
}

// maxChainDepth bounds the scanOf descent so a malformed (cyclic)
// operator graph surfaces as an error instead of an infinite loop.
const maxChainDepth = 1 << 20

// scanOf returns the scan at the probe-most leaf of an operator chain.
// Callers validate segments with segmentable first, but a
// malformed segment must return an error rather than loop forever or
// panic on a childless non-scan operator.
func scanOf(op Operator) (*Scan, error) {
	for depth := 0; ; depth++ {
		if s, ok := op.(*Scan); ok {
			return s, nil
		}
		if depth > maxChainDepth {
			return nil, fmt.Errorf("relational: operator chain exceeds depth %d without reaching a Scan leaf", maxChainDepth)
		}
		next, ok := chainChild(op)
		if !ok {
			return nil, fmt.Errorf("relational: segment leaf %T is not a Scan", op)
		}
		op = next
	}
}
