package raven

import (
	"math/rand"
	"testing"

	"raven/internal/data"
)

// Zone predicates are copies of WHERE conjuncts that let a scan skip
// partitions, chunks and rows. A copy is only sound below operators that
// commute with the filter: a conjunct above a LIMIT, an aggregate or a
// HAVING constrains their output, not the rows they read. These tests
// pin in-memory ≡ partitioned ≡ chunk-backed for queries whose WHERE sits
// above such an operator.

// pushdownTable is 20 000 rows: x = i (sorted, so chunk zone maps are
// tight), a random float y and a group g = i % 4.
func pushdownTable() *Table {
	const n = 20000
	r := rand.New(rand.NewSource(5))
	xs := make([]int64, n)
	ys := make([]float64, n)
	gs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i)
		ys[i] = r.Float64()
		gs[i] = int64(i % 4)
	}
	return data.MustNewTable("t", data.NewInt("x", xs), data.NewFloat("y", ys), data.NewInt("g", gs))
}

func TestZonePredicatesStayAboveLimitAndAggregate(t *testing.T) {
	queries := []struct {
		name, sql string
		rows      int  // in-memory result size; -1 = some but not all of the LIMIT
		ordered   bool // false: no ORDER BY fixes which rows a LIMIT keeps, and partitioning reorders the scan
	}{
		{"limit", "WITH d AS (SELECT * FROM t ORDER BY y LIMIT 50) SELECT d.x, d.y FROM d WHERE d.x <= 1500", -1, true},
		{"limit-group", "WITH d AS (SELECT * FROM t ORDER BY y LIMIT 40) SELECT d.x, d.g FROM d WHERE d.g = 1", -1, true},
		{"offset", "WITH d AS (SELECT * FROM t ORDER BY y LIMIT 100 OFFSET 30) SELECT d.x FROM d WHERE d.x > 18000", -1, true},
		{"bare-limit", "WITH d AS (SELECT * FROM t LIMIT 3000) SELECT d.x FROM d WHERE d.x >= 2500", 500, false},
		{"aggregate", "WITH a AS (SELECT g, MAX(x) AS x FROM t GROUP BY g) SELECT a.g, a.x FROM a WHERE a.x <= 1500", 0, true},
		{"sort-no-limit", "WITH d AS (SELECT * FROM t ORDER BY y) SELECT d.x, d.y FROM d WHERE d.x <= 1500", 1501, true},
	}
	mem := NewSession()
	mem.RegisterTable(pushdownTable())
	chunked := NewSession()
	if err := chunked.RegisterTableChunked(pushdownTable(), 1024); err != nil {
		t.Fatal(err)
	}
	parted := NewSession()
	if err := parted.RegisterPartitionedTable(pushdownTable(), "g"); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			want, err := mem.Query(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			if q.rows >= 0 && want.Table.NumRows() != q.rows {
				t.Fatalf("in memory: %d rows, want %d", want.Table.NumRows(), q.rows)
			}
			if q.rows < 0 && (want.Table.NumRows() == 0 || want.Table.NumRows() >= 40) {
				t.Fatalf("in memory: %d rows; the fixture should keep some but not all of the LIMIT", want.Table.NumRows())
			}
			for name, s := range map[string]*Session{"chunked": chunked, "partitioned": parted} {
				if name == "partitioned" && !q.ordered {
					continue
				}
				got, err := s.Query(q.sql)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.Table.NumRows() != want.Table.NumRows() {
					t.Fatalf("%s: %d rows, in memory %d\n%s", name, got.Table.NumRows(), want.Table.NumRows(), got.Plan)
				}
				assertResultIdentical(t, want, got)
			}
		})
	}
}
