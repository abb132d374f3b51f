package opt

import "testing"

// Tests for the Reoptimize observation filter: only true-cardinality
// points may contribute selectivity ratios; DOP records, spill
// accounting and limit-truncated merge counts must be inert.

func TestCardinalityPoint(t *testing.T) {
	for point, want := range map[string]bool{
		"join_build":             true,
		"group_merge":            true,
		"sort_merge":             true,
		"exchange_dop":           false,
		"sort_merge_truncated":   false,
		"join_spill_bytes":       false,
		"group_spill_bytes":      false,
		"group_spill_partitions": false,
		"sort_spill_bytes":       false,
		"sort_spill_runs":        false,
	} {
		if got := cardinalityPoint(point); got != want {
			t.Errorf("cardinalityPoint(%q) = %v, want %v", point, got, want)
		}
	}
}

func TestReoptimizeSkipsNonCardinalityPoints(t *testing.T) {
	rs := NewRuntimeStats()
	// A limit-truncated sort merge: 1000 rows estimated, the merge only
	// saw the top 10 because every per-worker run was cut at the limit.
	rs.ObserveCardinality("sort_merge_truncated", 1000, 10)
	// Spill accounting: huge observed values with zero estimates.
	rs.ObserveCardinality("sort_spill_bytes", 0, 1<<20)
	rs.ObserveCardinality("group_spill_partitions", 0, 16)
	rs.ObserveCardinality("exchange_dop", 0, 8)
	adj, trigger := rs.Reoptimize(500)
	if trigger {
		t.Fatal("non-cardinality observations triggered re-optimization")
	}
	if adj != 500 {
		t.Fatalf("adjusted estimate = %v, want 500 (unchanged)", adj)
	}
	// A genuine misestimate still triggers through the filter.
	rs.ObserveCardinality("join_build", 1000, 10)
	adj, trigger = rs.Reoptimize(500)
	if !trigger {
		t.Fatal("true join_build misestimate did not trigger")
	}
	if adj != 5 {
		t.Fatalf("adjusted estimate = %v, want 5 (×10/1000)", adj)
	}
}
