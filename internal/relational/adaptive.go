package relational

// AdaptiveContext is the hook pipeline breakers report true cardinalities
// into and consult for mid-query re-optimization decisions. The concrete
// implementation is opt.RuntimeStats; the interface lives here so the
// relational operators stay free of optimizer imports. All methods must
// be safe for concurrent use.
//
// Observation points, in the order a plan usually reaches them:
//
//   - "join_build": the hash join's build side is fully materialized at
//     Open — its true row count is known before a single probe row (or
//     any downstream predict work) flows.
//   - "exchange_dop": the exchange's morsel queue is built at Open; the
//     effective worker count is clamped to the work actually available.
//   - "group_merge": the grouped-aggregation breaker knows the true
//     group count when it finalizes.
//   - "sort_merge": the sort breaker knows the true input row count when
//     it merges.
//
// Every adaptive switch taken from these observations preserves
// byte-identical results: dense and hash grouping produce identical
// output by construction, exchange output is reordered by morsel
// sequence regardless of worker count, and the ML runtime / MLtoSQL /
// tensor paths are the differentially-tested equivalent physical
// implementations of the same predict node.
type AdaptiveContext interface {
	// ObserveCardinality records the true cardinality seen at a breaker
	// alongside the plan-time estimate for the same quantity.
	ObserveCardinality(point string, estimated, observed float64)
	// Reoptimize returns a downstream estimate corrected by the
	// observations so far, and whether the accumulated misestimation
	// crosses the re-cost trigger factor.
	Reoptimize(est float64) (adj float64, trigger bool)
	// RecordSwitch records a strategy change taken at a breaker boundary.
	RecordSwitch(point, from, to string)
}

// adaptiveDenseMinRows is the adjusted-input-row floor below which the
// dense grouping path stops paying: the dense code→group array costs
// O(dictionary cardinality) per accumulator while the hash path costs
// O(rows actually present). When observations show far fewer rows than
// estimated reach the aggregation, grouping switches to hash. Both paths
// are byte-identical, so the switch is always safe.
const adaptiveDenseMinRows = 1024

// resolveDenseLimit applies the adaptive dense-vs-hash decision at
// operator Open (after the child opened, so upstream join builds have
// already been observed): when re-optimization triggers and the corrected
// input estimate is tiny, the dense path is disabled for this execution.
// The returned limit feeds groupScratch.partial; the operator's
// configured DenseLimit field is never mutated.
func resolveDenseLimit(ctx AdaptiveContext, denseLimit int, estRows float64, point string) int {
	if ctx == nil || denseLimit < 0 {
		return denseLimit
	}
	adj, trigger := ctx.Reoptimize(estRows)
	if trigger && adj < adaptiveDenseMinRows {
		ctx.RecordSwitch(point, "dense", "hash")
		return -1
	}
	return denseLimit
}
