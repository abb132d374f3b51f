// Package engine binds the substrates together: it implements the
// catalog, lowers unified-IR plans to physical operator trees and
// executes them under a Profile (degree of parallelism, batch size,
// memory budget).
//
// The catalog owns registered tables (in-memory, partitioned, or
// chunk-backed via RegisterChunked), trained model pipelines, and the
// per-{pipeline, column binding} ML session pools that concurrent
// queries check sessions out of. Lowering builds fresh operators per
// execution from immutable optimized IR, which is what lets one cached
// plan run concurrently.
//
// ExecuteContext opens the lowered tree with the query's one
// relational.Env: the context (cancellation), the scheduler
// (Profile.Sched), and the query's share of the engine-global
// GlobalBudget (Profile.GlobalBudget). Parallel and budgeted queries pass
// admission first — the admission cap is what bounds the sum of budget
// floors — and the budget's Cleanup is deferred for the whole query so
// spill files never survive error, cancel or panic paths. Executed
// results report the measured wall time (the only clock the engine has),
// the executed operator tree, boundary counters and spill volume back on
// the Result.
package engine
