package relational

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"raven/internal/data"
)

// bigFixture builds an n-row table split into several partitions, with
// values arranged so filters select interleaved rows from every morsel.
func bigFixture(t *testing.T, n int) *data.PartitionedTable {
	t.Helper()
	ids := make([]int64, n)
	vs := make([]float64, n)
	grp := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		vs[i] = float64(i % 97)
		grp[i] = fmt.Sprintf("g%d", i*4/n)
	}
	tbl := data.MustNewTable("big",
		data.NewInt("id", ids), data.NewFloat("v", vs), data.NewString("grp", grp))
	pt, err := data.PartitionBy(tbl, "grp")
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func assertTablesEqual(t *testing.T, want, got *data.Table) {
	t.Helper()
	if want.NumRows() != got.NumRows() || want.NumCols() != got.NumCols() {
		t.Fatalf("shape: want %dx%d, got %dx%d",
			want.NumRows(), want.NumCols(), got.NumRows(), got.NumCols())
	}
	for _, wc := range want.Cols {
		gc := got.Col(wc.Name)
		if gc == nil {
			t.Fatalf("missing column %q", wc.Name)
		}
		for i := 0; i < wc.Len(); i++ {
			if wc.AsString(i) != gc.AsString(i) {
				t.Fatalf("column %q row %d: want %s, got %s",
					wc.Name, i, wc.AsString(i), gc.AsString(i))
			}
		}
	}
}

// segment builds Project(Filter(Scan)) over the fixture.
func segment(pt *data.PartitionedTable, batch int) Operator {
	scan := NewScan(pt, "", []string{"id", "v"}, batch)
	filter := &Filter{Child: scan, Pred: NewBinOp(OpLt, Col("v"), Num(60))}
	return &Project{Child: filter, Exprs: []NamedExpr{
		{Name: "id", E: Col("id")},
		{Name: "v2", E: NewBinOp(OpMul, Col("v"), Num(2))},
	}}
}

func mustParallelize(t *testing.T, op Operator, dop, morselSize int) Operator {
	t.Helper()
	out, err := Parallelize(op, dop, morselSize)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestParallelizeProducesIdenticalResults(t *testing.T) {
	pt := bigFixture(t, 5000)
	serial, err := Drain(segment(pt, 128))
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{1, 2, 8} {
		root := mustParallelize(t, segment(pt, 128), dop, 128)
		if dop > 1 {
			if _, ok := root.(*Exchange); !ok {
				t.Fatalf("dop=%d: expected Exchange root, got %T", dop, root)
			}
		}
		got, err := Drain(root)
		if err != nil {
			t.Fatalf("dop=%d: %v", dop, err)
		}
		assertTablesEqual(t, serial, got)
	}
}

func TestParallelStatsMatchSerial(t *testing.T) {
	pt := bigFixture(t, 5000)
	serialRoot := segment(pt, 128)
	if _, err := Drain(serialRoot); err != nil {
		t.Fatal(err)
	}
	serialStats := CollectStats(serialRoot)
	for _, dop := range []int{2, 8} {
		root := mustParallelize(t, segment(pt, 128), dop, 128)
		if _, err := Drain(root); err != nil {
			t.Fatalf("dop=%d: %v", dop, err)
		}
		// Stats inside the exchange: skip the Exchange node itself, then
		// compare the template chain pairwise with the serial plan.
		all := CollectStats(root)
		parallel := all[1:]
		if len(parallel) != len(serialStats) {
			t.Fatalf("dop=%d: %d ops, want %d", dop, len(parallel), len(serialStats))
		}
		for i, ps := range parallel {
			ss := serialStats[i]
			if ps.Rows != ss.Rows {
				t.Errorf("dop=%d op %s: rows=%d, serial=%d", dop, ps.Name, ps.Rows, ss.Rows)
			}
			if ps.Batches != ss.Batches {
				t.Errorf("dop=%d op %s: batches=%d, serial=%d", dop, ps.Name, ps.Batches, ss.Batches)
			}
			if ps.BytesRead != ss.BytesRead {
				t.Errorf("dop=%d op %s: bytes=%d, serial=%d", dop, ps.Name, ps.BytesRead, ss.BytesRead)
			}
		}
	}
}

func TestParallelizeBareScan(t *testing.T) {
	pt := bigFixture(t, 3000)
	serial, err := Drain(NewScan(pt, "a", nil, 100))
	if err != nil {
		t.Fatal(err)
	}
	root := mustParallelize(t, NewScan(pt, "a", nil, 100), 4, 100)
	got, err := Drain(root)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, serial, got)
	if got.Col("a.id") == nil {
		t.Fatalf("alias qualification lost: %v", got.Schema().Names())
	}
}

func TestParallelizeRespectsZonePruning(t *testing.T) {
	pt := bigFixture(t, 4000)
	mk := func() *Scan {
		s := NewScan(pt, "", nil, 64)
		// grp partitions each cover one quarter of the id range; pruning on
		// id must skip partitions whose zone maps rule the predicate out.
		s.Prune = []ZonePredicate{{Col: "id", Op: OpGt, Val: 2999}}
		return s
	}
	serialScan := mk()
	serial, err := Drain(&Filter{Child: serialScan, Pred: NewBinOp(OpGt, Col("id"), Num(2999))})
	if err != nil {
		t.Fatal(err)
	}
	parScan := mk()
	root := mustParallelize(t, &Filter{Child: parScan, Pred: NewBinOp(OpGt, Col("id"), Num(2999))}, 3, 64)
	got, err := Drain(root)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, serial, got)
	if parScan.SkippedPartitions() != serialScan.SkippedPartitions() {
		t.Fatalf("skipped = %d, serial = %d",
			parScan.SkippedPartitions(), serialScan.SkippedPartitions())
	}
	if serialScan.SkippedPartitions() == 0 {
		t.Fatal("fixture should prune at least one partition")
	}
}

func TestParallelizeSmallInputStaysSerial(t *testing.T) {
	tbl := data.MustNewTable("small", data.NewFloat("v", []float64{1, 2, 3}))
	scan := NewScan(data.SinglePartition(tbl), "", nil, 1024)
	root := mustParallelize(t, scan, 8, 1024)
	if root != Operator(scan) {
		t.Fatalf("small scan should stay serial, got %T", root)
	}
}

func TestExchangeErrorPropagation(t *testing.T) {
	pt := bigFixture(t, 4000)
	scan := NewScan(pt, "", nil, 64)
	// The predicate references a missing column, so every worker fails.
	bad := &Filter{Child: scan, Pred: NewBinOp(OpGt, Col("nope"), Num(0))}
	root := mustParallelize(t, bad, 4, 64)
	_, err := Drain(root)
	if err == nil {
		t.Fatal("expected error from missing column")
	}
	if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Close must not hang or panic after the failure (Drain already
	// closed; a second close must be safe).
	if cerr := root.Close(); cerr != nil {
		t.Fatalf("close after failure: %v", cerr)
	}
}

func TestExchangeReopen(t *testing.T) {
	pt := bigFixture(t, 3000)
	root := mustParallelize(t, segment(pt, 128), 4, 128)
	first, err := Drain(root)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Drain(root)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, first, second)
}

// TestExchangeOpenStartsNoWorkers guards the leak fix: a sibling operator
// failing its Open (e.g. a join build side) abandons an already-opened
// exchange without Close, so Open must not start goroutines — the pool
// launches lazily on first Next.
func TestExchangeOpenStartsNoWorkers(t *testing.T) {
	pt := bigFixture(t, 4000)
	root := mustParallelize(t, segment(pt, 64), 4, 64)
	before := runtime.NumGoroutine()
	if err := root.Open(nil); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("Open started %d goroutines", after-before)
	}
	// An abandoned open must not block a later full run.
	serial, err := Drain(segment(pt, 64))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(root)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, serial, got)
}
