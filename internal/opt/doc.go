// Package opt implements the Raven optimizer: logical
// cross-optimizations (predicate-based model pruning §4.1,
// model-projection pushdown §4.1, data-induced optimizations §4.2) and
// logical-to-physical transformations (MLtoSQL, MLtoDNN §5.1) selected
// by pluggable data-driven strategies (§5.2). All rules operate on the
// unified IR.
//
// Each predict node's runtime is fixed once, at optimization time, by
// the session's strategy; execution never re-decides it.
package opt
