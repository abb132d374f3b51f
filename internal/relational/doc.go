// Package relational implements the data-engine substrate: a vectorized
// expression evaluator and batch-at-a-time physical operators (scan,
// filter, project, hash join, grouped aggregation, sort). It is the
// Spark SQL / SQL Server stand-in that executes the relational part of
// prediction queries — including ML operators that Raven's MLtoSQL rule
// translated to expressions.
//
// # The byte-identity contract
//
// Every alternative execution of a plan — parallel at any DOP, chunk-
// backed scans, spilled breakers, adaptive strategy switches — must
// produce results byte-identical to the in-memory serial execution,
// including row order and float bit patterns. The building blocks:
// scans emit fixed BatchSize batches in partition order; Exchange splits
// scans into row-range morsels aligned to those batch boundaries and
// merges worker results in morsel order; per-worker partial aggregates
// and sort runs are merged in that same order with first-occurrence
// tie-breaks. Chunk-backed partitions preserve the contract by cutting
// batches at BatchSize boundaries, never chunk boundaries — chunks are
// the decode and skipping granularity underneath. One scan body
// (Scan.readBatch) serves the serial cursor and the exchange tasks, each
// with a one-chunk cache of its own: an exchange task is the run of
// morsels starting in one chunk, so that chunk is decoded once. Zone
// predicates are evaluated per partition and then per chunk
// (data.Partition.ChunkStats) once per scan; rows of an excluded chunk
// are never decoded or emitted, which the Filter the predicates were
// copied from makes invisible downstream. A zone that holds a NaN is
// never excluded. OpStats.ChunksDecoded/ChunksSkipped count both.
//
// # The execution environment
//
// Operators carry plan data only. What one execution shares — the
// query's context, memory budget, adaptive observer and scheduler — is
// one Env handed to Open, which every operator forwards to its children
// and the Exchange to each worker chain; an operator that needs it later
// keeps the pointer it was opened with. A nil or zero Env runs the plan
// unbudgeted, unobserved and uncancellable on the process-wide scheduler.
//
// # Pipeline breakers and spilling
//
// The three pipeline breakers (hash-join build, grouped-aggregation
// merge, sort) materialize state, so they reserve it against the Env's
// MemBudget: one query's share of a GlobalBudget, whose Reservations
// decide when each breaker spills (a budget private to one query is a
// global budget with admission cap 1).
// Join builds spill their build rows (typed indexes stay resident, so
// probe order is untouched); grouped aggregation grace-hash-partitions
// spilled partial-aggregate state with fold sequence numbers so
// re-folding reproduces the serial per-key fold; sorts write per-morsel
// runs to disk and k-way merge them externally with the serial
// tie-break. Cleanup removes every spill file on success, error, cancel
// and panic paths alike.
package relational
