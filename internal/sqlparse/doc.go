// Package sqlparse implements the SQL surface of Raven: a lexer and
// recursive-descent parser for prediction queries — SELECT with joins,
// WHERE conjunctions (comparisons, IN lists, boolean columns), CTEs,
// GROUP BY / HAVING / ORDER BY / LIMIT / OFFSET, the
// PREDICT(MODEL=…, DATA=…) WITH(…) table-valued function and the
// predict(model, *) UDF sugar — plus the planner that lowers the AST
// into the unified IR. HAVING is planned above the grouped aggregation:
// its columns resolve against the grouped layout (group keys, then
// aggregate aliases) plus select-list aliases, non-aggregated inputs are
// rejected, and so is HAVING without GROUP BY. NormalizeSQL (whitespace
// collapsed outside quotes and comments) is the plan-cache key, so two
// spellings of the same query share one cached plan.
package sqlparse
