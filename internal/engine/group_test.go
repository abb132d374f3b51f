package engine

import (
	"fmt"
	"testing"

	"raven/internal/data"
	"raven/internal/relational"
	"raven/internal/sqlparse"
)

// groupCatalog registers one dictionary-encoded table with a known group
// structure, large enough for parallel plans to split into morsels.
func groupCatalog(t *testing.T, rows int) *Catalog {
	t.Helper()
	g := make([]string, rows)
	v := make([]float64, rows)
	for i := 0; i < rows; i++ {
		g[i] = fmt.Sprintf("m%d", i%5)
		v[i] = float64(i)
	}
	cat := NewCatalog()
	cat.RegisterTable(data.DictEncodeTable(data.MustNewTable("sales",
		data.NewString("market", g), data.NewFloat("amount", v))))
	return cat
}

// TestLowerGroupByPicksGroupAggregate pins the lowering: an aggregate
// node lowers to relational.GroupAggregate — with its GROUP BY keys, or
// with none for a global aggregate — and HAVING to a relational.Filter
// above it.
func TestLowerGroupByPicksGroupAggregate(t *testing.T) {
	cat := groupCatalog(t, 100)
	lower := func(sql string) Operator {
		t.Helper()
		g, err := sqlparse.ParseAndPlan(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		root, err := Lower(g, cat, Local)
		if err != nil {
			t.Fatal(err)
		}
		return root
	}
	ga, ok := lower("SELECT market, SUM(amount) AS s FROM sales GROUP BY market").(*relational.GroupAggregate)
	if !ok {
		t.Fatal("grouped root is not a *relational.GroupAggregate")
	}
	if len(ga.Keys) != 1 || ga.Keys[0] != "sales.market" {
		t.Fatalf("Keys = %v", ga.Keys)
	}
	root := lower("SELECT SUM(amount) AS s FROM sales")
	if ga, ok := root.(*relational.GroupAggregate); !ok || len(ga.Keys) != 0 {
		t.Fatalf("lowered global root = %T, want a zero-key *relational.GroupAggregate", root)
	}
	root = lower("SELECT market, SUM(amount) AS s FROM sales GROUP BY market HAVING s > 10")
	f, ok := root.(*relational.Filter)
	if !ok {
		t.Fatalf("lowered HAVING root = %T, want *relational.Filter", root)
	}
	if _, ok := f.Child.(*relational.GroupAggregate); !ok {
		t.Fatalf("HAVING filters %T, want *relational.GroupAggregate", f.Child)
	}
}

// TestGroupByDenseVsHashProfiles runs the same grouped query with the key
// registered dictionary-encoded (dense grouping) and as raw strings (hash
// grouping) at several DOPs: results must be byte-identical, with groups
// in first-occurrence order.
func TestGroupByDenseVsHashProfiles(t *testing.T) {
	cat := groupCatalog(t, 20000)
	sales, _ := cat.Table("sales")
	raw := NewCatalog()
	raw.RegisterTable(data.DecodeTable(sales.Parts[0].Table))
	const sql = "SELECT market, COUNT(*) AS n, AVG(amount) AS m FROM sales GROUP BY market"
	g, err := sqlparse.ParseAndPlan(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(g, cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	if base.Table.NumRows() != 5 {
		t.Fatalf("groups = %d", base.Table.NumRows())
	}
	for i := 0; i < 5; i++ {
		if got := base.Table.Col("sales.market").AsString(i); got != fmt.Sprintf("m%d", i) {
			t.Fatalf("group %d = %q (first-occurrence order broken)", i, got)
		}
		if got := base.Table.Col("n").F64[i]; got != 4000 {
			t.Fatalf("count[%d] = %v", i, got)
		}
	}
	for name, c := range map[string]*Catalog{"dense": cat, "hash": raw} {
		for _, dop := range []int{1, 2, 4} {
			prof := Local
			prof.ExecDOP = dop
			res, err := Run(g, c, prof)
			if err != nil {
				t.Fatalf("%s dop=%d: %v", name, dop, err)
			}
			diffAssertIdenticalTables(t, base.Table, res.Table,
				fmt.Sprintf("%s dop=%d", name, dop))
		}
	}
}

func diffAssertIdenticalTables(t *testing.T, want, got *data.Table, label string) {
	t.Helper()
	if want.NumRows() != got.NumRows() || want.NumCols() != got.NumCols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label,
			got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for _, wc := range want.Cols {
		gc := got.Col(wc.Name)
		if gc == nil {
			t.Fatalf("%s: missing column %q", label, wc.Name)
		}
		for i := 0; i < wc.Len(); i++ {
			if wc.AsString(i) != gc.AsString(i) {
				t.Fatalf("%s: column %q row %d: %s != %s",
					label, wc.Name, i, gc.AsString(i), wc.AsString(i))
			}
		}
	}
}

// TestGroupByOverEmptyCatalogView is the engine-level twin of the
// FilterCount all-false regression: registering an all-false filter view
// as a catalog table, both grouped and global aggregation over it run at
// DOP 1 and 4 and produce zero-group / identity results.
func TestGroupByOverEmptyCatalogView(t *testing.T) {
	tb := data.DictEncodeTable(data.MustNewTable("sales",
		data.NewString("market", []string{"a", "b", "a"}),
		data.NewFloat("amount", []float64{1, 2, 3})))
	empty := tb.Filter(make([]bool, tb.NumRows()))
	cat := NewCatalog()
	cat.RegisterTable(empty)
	for _, sql := range []string{
		"SELECT market, COUNT(*) AS n FROM sales GROUP BY market",
		"SELECT COUNT(*) AS n, SUM(amount) AS s FROM sales",
	} {
		g, err := sqlparse.ParseAndPlan(sql, cat)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for _, dop := range []int{1, 4} {
			prof := Local
			prof.ExecDOP = dop
			res, err := Run(g, cat, prof)
			if err != nil {
				t.Fatalf("%s dop=%d: %v", sql, dop, err)
			}
			n := res.Table.Col("n")
			switch {
			case res.Table.HasCol("s"): // global: identity row
				if res.Table.NumRows() != 1 || n.F64[0] != 0 || res.Table.Col("s").F64[0] != 0 {
					t.Fatalf("%s dop=%d:\n%s", sql, dop, res.Table)
				}
			default: // grouped: zero groups
				if res.Table.NumRows() != 0 {
					t.Fatalf("%s dop=%d: %d groups", sql, dop, res.Table.NumRows())
				}
			}
		}
	}
}
