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
// backed scans, spilled breakers — must produce results byte-identical to the in-memory serial execution,
// including row order and float bit patterns. The building blocks:
// scans emit fixed BatchSize batches in partition order; Exchange splits
// scans into row-range morsels aligned to those batch boundaries and
// merges worker results in morsel order; per-batch partial aggregates
// and sort runs are folded in that same order with first-occurrence
// tie-breaks. Chunk-backed partitions preserve the contract by cutting
// batches at BatchSize boundaries, never chunk boundaries — chunks are
// the decode and skipping granularity underneath. One scan body
// (Scan.readBatch) serves the serial cursor and the exchange tasks, each
// with a one-chunk cache of its own: an exchange task is the run of
// morsels starting in one chunk, so that chunk is decoded once. Zone
// predicates are evaluated per partition and then per chunk
// (data.Partition.ChunkStats) once per scan; rows of an excluded chunk
// are never decoded or emitted. A zone that holds a NaN is never
// excluded. Within a live chunk the scan decodes the predicate columns,
// evaluates the predicates as the very BinOps the Filter above evaluates
// (same Expr kernels: NaN compares as equal, int64 as float, dictionary
// strings by code) into a selection of row positions, and decodes only
// those rows of the other columns (data.RowFilter, DecodeColumnAt). Each
// batch still covers its BatchSize row range and carries exactly the rows
// of it that satisfy every predicate, or is not emitted; the Filter the
// predicates were copied from would have dropped the rest, so it passes
// the same rows in the same batches. The optimizer copies a conjunct only
// through operators it commutes with (never below a LIMIT, an aggregate
// or a HAVING). OpStats.ChunksDecoded/ChunksSkipped count chunk decodes
// and exclusions; a scan's OpStats.Rows counts every row of the live
// chunks it read, selected or not.
//
// # The execution environment
//
// Operators carry plan data only. What one execution shares — the
// query's context, memory budget and scheduler — is
// one Env handed to Open, which every operator forwards to its children
// and the Exchange to each worker chain; an operator that needs it later
// keeps the pointer it was opened with. A nil or zero Env runs the plan
// unbudgeted and uncancellable on the process-wide scheduler.
//
// # Pipeline breakers: one operator, an inline or exchanged partial step
//
// Each pipeline breaker is one operator with one Open/Next body —
// HashJoin, GroupAggregate, Sort — that drains its input (polling the
// Env's context once per batch) and folds one partial per input batch in
// stream order. Lowered serially, the breaker computes each partial
// inline from its input batch. When Parallelize finds a big-enough segment
// below it, it moves only the partial step into the exchange workers
// (PartialGroupAggregate, PartialSort) and the breaker folds the partials
// the Exchange re-emits in morsel order — the serial batch order. Serial
// execution is therefore the DOP-1 case of the same operator, and both
// fold the same partials in the same order:
//
//   - HashJoin drains and indexes its build side at Open (typed indexes:
//     int64, float bits with NaNs canonical, dictionary codes indexing an
//     array, strings); the per-batch step is the probe, emitting probe
//     row order × ascending build row order. Inside an exchange segment
//     the join is the chain operator: the template builds once on the
//     query thread, indexing with up to DOP workers, and the worker clones
//     (Right == nil) probe their chains against that shared, immutable
//     build.
//   - GroupAggregate is every aggregation, global and grouped. Its state
//     is one struct-of-arrays accumulator, aggState: COUNT plus
//     per-aggregate SUM/MIN/MAX float64 slices indexed by group id (AVG as
//     SUM and COUNT, divided only at the end; MIN and MAX start from
//     ±Inf). A partial's state columns — in an exchange batch or a spill
//     slab — are those slices, so no per-group or per-row object exists
//     anywhere.
//   - The global aggregate is GroupAggregate with no keys: each batch is
//     one group, and the merge holds one identity group from the start and
//     folds every partial into it — one addition tree at any DOP, the
//     identity row over empty input, no budget reserved.
//   - With keys, GroupAggregate groups each batch into a partial and
//     merges it by key VALUE, never by dictionary code, so partials with
//     mismatched dictionaries or raw strings agree; groups come out in
//     first-occurrence order. A batch is grouped in two passes, a group id
//     per row then a column-at-a-time fold, and the merge likewise assigns
//     ids then folds state columns. Group ids come from a dense code→group
//     array when the single key is dictionary-encoded with at most
//     DefaultDenseGroupLimit = 4096 entries (one array per worker, reset
//     through the touched-code list), or from a typed key index: a single
//     int64, float64 (NaNs collapsed by floatKey) or bool key probes a
//     map[uint64]int32 on its value, a single string key a
//     map[string]int32 on its value, and only key tuples are encoded to
//     canonical bytes (8-byte words, one-byte bools, length-prefixed
//     strings). Every path visits rows in batch order with the same
//     updates, so they are bit-identical. The dense path is chosen from
//     the key column alone and has no setting; it stays because it pays:
//     dense grouping of the kernel-shape benchmark's 30k rows took
//     1.08–1.17 ms against 1.54–1.78 ms hashed at DOP 1, and 0.78–0.79
//     against 1.00–1.02 ms at DOP 4 (2-core host; docs/ARCHITECTURE.md).
//   - Sort turns each batch into one stable sorted run cut to its top
//     Offset+Limit rows (a row outside its run's window can never enter
//     the global one; a bounded heap finds the window in O(n log k)), and
//     k-way merges the runs, ties going to the earlier run — exactly the
//     stable sort of the whole input. A serial Sort holds its input once
//     (the first batch as is, a concatenated copy once a second arrives)
//     and gathers the merged order once. The comparator is a total order:
//     int64 by value, bools false < true, floats with every NaN collapsed
//     into one key after all numbers, dictionary strings by a cached
//     per-dictionary code→rank table, raw strings by strings.Compare, ties
//     by position in the serial batch stream; DESC flips the key
//     comparison, never the tie-break. The top-k heap measured ≈9–25× over
//     a full sort for a top-10 over 150k predicted groups. PartialSort
//     passes zero- and single-row batches through without building
//     comparators.
//
// Ordered output around the breakers: HAVING is a plain Filter above the
// aggregation breaker, where group keys and aggregate aliases exist as
// columns (a Filter skips zero-row batches, such as an empty grouped
// result, without evaluating its predicate); LIMIT/OFFSET without ORDER BY
// is a Limit cutting the deterministic batch stream by position.
//
// # Spilling
//
// The breakers materialize state, so they reserve it against the Env's
// MemBudget: one query's share of a GlobalBudget, whose Reservations
// decide when each breaker spills (a budget private to one query is a
// global budget with admission cap 1). Each spills what it can afford to
// re-read. The join build spills its build rows as encoded slabs while
// the key column and typed indexes stay resident, so probe order is
// untouched (a grace-hash join would reorder output); it holds its grant
// until the query's Cleanup. Grouped aggregation grace-hash-partitions its
// groups (fnv32a over the canonical key bytes) into 16 partitions of
// partial-aggregate state with fold sequence numbers, so re-folding a
// partition reproduces the serial per-key fold; each re-folded partition
// lists its groups in ascending first sequence, so one linear 16-way merge
// restores first-occurrence order; it releases its reservation at the
// switch. The sort migrates its held runs
// to disk, writes every later run directly and releases its reservation;
// the external merge keeps the earlier-run tie-break. The grouped spill's
// partition buffers together stay within the query's floor. The partial
// steps retain nothing across batches, so they never spill. Spilled bytes
// surface as the spilling breaker's OpStats.SpillBytes. Cleanup removes
// every spill file on success, error, cancel and panic paths alike.
package relational
