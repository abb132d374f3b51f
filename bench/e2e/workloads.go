package main

import (
	"fmt"
	"runtime"
	"time"

	"raven/internal/datagen"
	"raven/internal/train"
)

// text is one query text of a workload's cycle.
type text struct {
	sql string
	// floatKey names the float ORDER BY column of the text, "" when the
	// text has none. MLtoSQL and the ML runtime may differ in the last
	// float bits, so rows whose key ties with a neighbour may legally swap
	// between the benchmark session and the reference session.
	floatKey string
}

// workload is one set of inputs plus the load shape driven against them.
// Every size is a constant of the definition: the benchmark has no
// rows/clients/DOP flags, so two runs of one commit measure the same thing.
type workload struct {
	name string
	why  string
	// dataset generates the tables and the training sample.
	dataset func(rows int, seed int64) *datagen.Dataset
	rows    int
	kind    train.ModelKind
	tune    func(*train.Spec) // nil = the trainer's defaults
	// chunkThreshold is the WithChunkedRegistration argument: -1 keeps
	// tables in memory, 0 is the engine default (chunk-backed from 65 536
	// rows).
	chunkThreshold int
	// budget is the engine-global memory budget in bytes, 0 for none.
	budget int64
	// clients is the closed-loop client count; 0 makes the workload open
	// loop, one point query every period.
	clients int
	period  time.Duration
	// cycle renders the query texts of one closed-loop op.
	cycle func(ds *datagen.Dataset, model string) []text
}

// maxClients caps clients and in-flight ops so the load generator never
// asks for more concurrency than the 2-core reference host can give.
func maxClients() int { return min(runtime.NumCPU(), 4) }

// expediaCTE is the canonical three-table join of the Expedia dataset.
const expediaCTE = "WITH d AS (SELECT * FROM searches AS t0" +
	" JOIN hotels AS t1 ON t0.prop_id = t1.prop_id" +
	" JOIN destinations AS t2 ON t0.dest_id = t2.dest_id) "

// perSearch renders a query over the Expedia join keyed on srch_id:
// sel is the select list, tail everything after the PREDICT clause.
func perSearch(model, sel, tail string) string {
	return expediaCTE + "SELECT " + sel + " FROM PREDICT(MODEL = " + model +
		", DATA = d) WITH (score FLOAT) AS p " + tail
}

// pointQuery is the point_lookup text for one key. The literal is part of
// the text, so distinct keys are distinct plan-cache entries.
func pointQuery(model string, key int) string {
	return fmt.Sprintf("SELECT d.eid, p.score FROM PREDICT(MODEL = %s, DATA = hospital AS d)"+
		" WITH (score FLOAT) AS p WHERE d.eid = %d", model, key)
}

// workloads returns the four benchmark workloads. Names are final: later
// changes are judged on them.
func workloads() []workload {
	return []workload{
		{
			name: "batch_score",
			why: "batch scoring of one wide table with gradient boosting: Predict and mlruntime " +
				"do the work, breakers none, and the large result makes CSV writing visible",
			dataset: datagen.Hospital, rows: 100_000,
			kind:           train.KindGradientBoosting,
			tune:           func(s *train.Spec) { s.NEstimators = 60; s.MaxDepth = 6 },
			chunkThreshold: -1, clients: 1,
			cycle: func(ds *datagen.Dataset, m string) []text {
				return []text{
					{sql: ds.Query(m)},
					{sql: ds.Query(m, "d.num_issues >= 2")},
					{sql: ds.AggregateQuery(m)},
				}
			},
		},
		{
			name: "rank_join",
			why: "three-table join + logistic model turned to SQL, grouped and ranked: relational " +
				"and opt carry it and the ML runtime does nothing, so an ML-kernel change must not show",
			dataset: datagen.Expedia, rows: 100_000,
			kind:           train.KindLogistic,
			chunkThreshold: -1, clients: 1,
			cycle: func(ds *datagen.Dataset, m string) []text {
				return []text{
					{sql: ds.RankedGroupedQuery(m, 0.05, 10), floatKey: "avg_score"},
					{sql: perSearch(m, "d.srch_id, AVG(p.score) AS s",
						"GROUP BY d.srch_id ORDER BY s DESC LIMIT 10"), floatKey: "s"},
					{sql: ds.OrderedGroupedQuery(m, true, "p.score > 0.5")},
				}
			},
		},
		{
			name: "point_lookup",
			why: "open-loop one-row lookups on a chunk-backed table, no text repeats: per-query " +
				"fixed costs (parse, optimize, lower, dispatch, chunk decode) are the whole latency",
			dataset: datagen.Hospital, rows: 131_072,
			kind:   train.KindGradientBoosting,
			period: 200 * time.Millisecond,
		},
		{
			name: "spill_serve",
			why: "concurrent clients on a chunk-backed join under a 1 MiB global budget: the same " +
				"breakers and scheduler as rank_join, but spilling and sharing cores between queries",
			dataset: datagen.Expedia, rows: 100_000,
			kind:   train.KindGradientBoosting,
			budget: 1 << 20, clients: maxClients(),
			cycle: func(_ *datagen.Dataset, m string) []text {
				return []text{
					{sql: perSearch(m, "d.srch_id, AVG(p.score) AS s",
						"GROUP BY d.srch_id ORDER BY s DESC LIMIT 10"), floatKey: "s"},
					{sql: perSearch(m, "d.srch_id, p.score AS s", "ORDER BY s DESC"), floatKey: "s"},
				}
			},
		},
	}
}

// findWorkload returns the workload with the given name.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
