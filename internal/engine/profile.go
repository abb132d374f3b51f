package engine

import (
	"raven/internal/relational"
	"raven/internal/sched"
)

// Profile describes how the engine executes a plan. Every field changes
// what the engine does; the modeled cluster costs the paper figures use
// live in internal/experiments (costmodel.go).
type Profile struct {
	Name string
	// ExecDOP is the degree of parallelism: when > 1 the engine rewrites
	// partition-parallel plan segments into morsel-driven Exchange
	// operators running that many worker goroutines. 0 or 1 executes
	// serially.
	ExecDOP int
	// BatchSize is the rows-per-batch the engine feeds operators
	// (the paper's UDF batch default is 10k).
	BatchSize int
	// MaterializeFeaturization forces featurizer output to be
	// materialized as one column per feature before the model runs
	// (MADlib's execution style). Widths beyond MaxMaterializedColumns
	// fail, mirroring PostgreSQL's 1600-column table limit.
	MaterializeFeaturization bool
	// Sched is the morsel scheduler the plan's exchanges run on. Nil uses
	// the process-wide shared pool (sched.Default()), so every concurrent
	// query multiplexes over one bounded set of workers; tests inject
	// private schedulers for isolation.
	Sched *sched.Scheduler
	// GlobalBudget, when non-nil, enables out-of-core execution: every
	// concurrent query's resident breaker bytes (join build,
	// grouped-aggregation merge, sort) draw from this one accountant, and
	// state beyond it spills to compressed temp files under the budget's
	// directory, merged back byte-identical to the in-memory execution at
	// any DOP. Each budgeted query passes admission and keeps a floor of
	// the total divided by the scheduler's admission cap, so no query
	// livelocks under pressure from its neighbors. Spill files are removed
	// when the query finishes, on error, cancellation and panic paths
	// included. Nil (the default) disables spilling.
	GlobalBudget *relational.GlobalBudget
}

// MaxMaterializedColumns mirrors PostgreSQL's 1600-column-per-table limit
// that forced the paper to skip Expedia/Flights for MADlib. The generated
// Expedia/Flights widths are scaled down ~10x from the paper's, so the
// limit is scaled by the same factor to preserve the behaviour.
const MaxMaterializedColumns = 160

// Local is the default profile: serial execution, no memory budget.
var Local = Profile{Name: "local", BatchSize: 1024}
