package engine

import (
	"context"
	"time"

	"raven/internal/data"
	"raven/internal/ir"
	"raven/internal/relational"
)

// Result is the outcome of executing a plan: the result table, the
// measured wall time, the executed operator tree and the boundary
// counters read off it.
type Result struct {
	Table *data.Table
	// Wall is the measured wall time of draining the plan, at whatever
	// DOP it ran (admission wait excluded). It is the engine's one clock.
	Wall time.Duration
	// Root is the executed (closed) operator tree; every operator's
	// Stats() holds its measured rows, batches and inclusive wall time.
	Root Operator
	// Sessions is the number of ML runtime sessions checked out (one per
	// chain that actually executed predictions).
	Sessions int
	// ColdSessions is the subset of Sessions that had to be initialized
	// from scratch rather than reused warm from the engine-level pool.
	ColdSessions int
	// PredictBatches counts batches that crossed the UDF boundary.
	PredictBatches int64
	// BytesConverted counts bytes converted at the boundary.
	BytesConverted int64
	// PartitionsScanned counts partitions actually read (after pruning).
	PartitionsScanned int
	// ChunksDecoded and ChunksSkipped sum, over the scans of chunk-backed
	// tables, the chunk decodes performed and the chunks zone maps left
	// encoded.
	ChunksDecoded, ChunksSkipped int64
	// SpilledBytes is the total bytes the pipeline breakers spilled to
	// temp files under the query's share of Profile.GlobalBudget (0
	// without a budget).
	SpilledBytes int64
}

// Run lowers and executes an IR plan under the profile.
func Run(g *ir.Graph, cat *Catalog, prof Profile) (*Result, error) {
	return RunContext(context.Background(), g, cat, prof)
}

// RunContext lowers and executes an IR plan under the profile, with the
// context governing cancellation (see ExecuteContext).
func RunContext(ctx context.Context, g *ir.Graph, cat *Catalog, prof Profile) (*Result, error) {
	root, err := Lower(g, cat, prof)
	if err != nil {
		return nil, err
	}
	return ExecuteContext(ctx, root, prof)
}

// Execute drains a physical plan and assembles the Result.
func Execute(root Operator, prof Profile) (*Result, error) {
	return ExecuteContext(context.Background(), root, prof)
}

// ExecuteContext drains a physical plan under a context and assembles the
// Result. It builds the query's one relational.Env — ctx, the profile's
// scheduler and the query's share of Profile.GlobalBudget — and opens the
// plan with it.
//
// Parallel plans and budgeted plans pass admission control first: the
// scheduler bounds how many such queries are in flight at once, which
// keeps morsel queue depth (and tail latency) bounded under overload and
// is what makes a budgeted query's floor (Total / AdmitCap) sound.
// Admission is held by the query thread only — scheduler workers never
// admit — so it cannot deadlock with morsel scheduling. Admission waits
// are cancelable (and bounded when the scheduler has an admit wait
// configured, surfacing sched.ErrOverloaded), the drain polls ctx per
// output batch, and the whole query-thread execution runs behind a panic
// boundary — a panic in any operator Open/Next/Close on this thread
// becomes the query's *relational.PanicError instead of taking down the
// process. The budget's Cleanup runs on every exit, so spill files cannot
// outlive the query and its reservations are always returned.
func ExecuteContext(ctx context.Context, root Operator, prof Profile) (res *Result, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	env := &relational.Env{Ctx: ctx, Sched: prof.Sched}
	s := env.Scheduler()
	if prof.ExecDOP > 1 || prof.GlobalBudget != nil {
		release, aerr := s.AdmitContext(ctx)
		if aerr != nil {
			return nil, aerr
		}
		defer release()
	}
	if prof.GlobalBudget != nil {
		env.Budget = prof.GlobalBudget.QueryBudgetFor(s.AdmitCap())
		defer env.Budget.Cleanup()
	}
	defer relational.RecoverPanic("query execution", &err)
	t0 := time.Now()
	table, err := relational.DrainEnv(env, root)
	if err != nil {
		return nil, err
	}
	res = &Result{Table: table, Wall: time.Since(t0), Root: root,
		SpilledBytes: env.Budget.SpilledBytes()}
	res.countBoundary(root)
	return res, nil
}

// countBoundary fills the result's boundary counters from the executed
// tree: ML sessions checked out (and the cold subset), batches and bytes
// that crossed into an ML runtime, and partitions and chunks read after
// pruning.
func (res *Result) countBoundary(op Operator) {
	switch o := op.(type) {
	case *PredictOp:
		res.Sessions += o.Sessions
		res.ColdSessions += o.ColdSessions
		res.PredictBatches += o.Stats().Batches
		res.BytesConverted += o.BytesConverted
	case *DNNOp:
		res.Sessions++
		res.PredictBatches += o.Stats().Batches
		res.BytesConverted += o.Work.BytesIn + o.Work.BytesOut
	case *relational.Scan:
		res.PartitionsScanned += o.PartitionsRead()
		res.ChunksDecoded += o.Stats().ChunksDecoded
		res.ChunksSkipped += o.Stats().ChunksSkipped
	}
	for _, c := range op.Children() {
		res.countBoundary(c)
	}
}
