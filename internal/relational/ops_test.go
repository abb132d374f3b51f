package relational

import (
	"testing"

	"raven/internal/data"
)

func scanFixture(batch int) *Scan {
	t := data.MustNewTable("t",
		data.NewInt("id", []int64{1, 2, 3, 4, 5}),
		data.NewFloat("v", []float64{10, 20, 30, 40, 50}),
		data.NewString("k", []string{"a", "b", "a", "b", "a"}),
	)
	return NewScan(data.SinglePartition(t), "", nil, batch)
}

func TestScanBatches(t *testing.T) {
	s := scanFixture(2)
	out, err := Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 5 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if s.Stats().Batches != 3 {
		t.Fatalf("batches = %d, want 3", s.Stats().Batches)
	}
	if s.Stats().Rows != 5 || s.Stats().BytesRead <= 0 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestScanColumnPruning(t *testing.T) {
	s := scanFixture(10)
	s.Cols = []string{"v"}
	out, err := Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumCols() != 1 || out.Col("v") == nil {
		t.Fatalf("cols = %v", out.Schema().Names())
	}
	// Bytes read should be exactly the v column payload (5 floats).
	if s.Stats().BytesRead != 40 {
		t.Fatalf("BytesRead = %d, want 40", s.Stats().BytesRead)
	}
}

func TestScanAliasQualifiesNames(t *testing.T) {
	s := scanFixture(10)
	s.Alias = "t1"
	out, err := Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Col("t1.id") == nil {
		t.Fatalf("cols = %v", out.Schema().Names())
	}
	want := []string{"t1.id", "t1.v", "t1.k"}
	got := s.Columns()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Columns() = %v", got)
		}
	}
}

func TestScanPartitionPruning(t *testing.T) {
	t5 := data.MustNewTable("t",
		data.NewFloat("age", []float64{10, 20, 70, 80, 30, 90}),
		data.NewString("grp", []string{"y", "y", "o", "o", "y", "o"}),
	)
	pt, err := data.PartitionBy(t5, "grp")
	if err != nil {
		t.Fatal(err)
	}
	s := NewScan(pt, "", nil, 10)
	s.Prune = []ZonePredicate{{Col: "age", Op: OpGt, Val: 60}}
	out, err := Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	// Partition "y" has max age 30 → skipped entirely. The scan must not
	// drop qualifying rows: all ages > 60 live in partition "o".
	if s.SkippedPartitions() != 1 {
		t.Fatalf("skipped = %d, want 1", s.SkippedPartitions())
	}
	if out.NumRows() != 3 {
		t.Fatalf("rows = %d (partition o has 3 rows)", out.NumRows())
	}
}

func TestZonePredicateCanSkip(t *testing.T) {
	stats := data.TableStats{
		"age": &data.ColStats{Name: "age", Type: data.Float64, Min: 10, Max: 30, Rows: 3},
		"cat": &data.ColStats{Name: "cat", Type: data.String, Distinct: []string{"a", "b"}, Rows: 3},
	}
	cases := []struct {
		z    ZonePredicate
		want bool
	}{
		{ZonePredicate{Col: "age", Op: OpGt, Val: 30}, true},
		{ZonePredicate{Col: "age", Op: OpGt, Val: 29}, false},
		{ZonePredicate{Col: "age", Op: OpGe, Val: 31}, true},
		{ZonePredicate{Col: "age", Op: OpLt, Val: 10}, true},
		{ZonePredicate{Col: "age", Op: OpLe, Val: 9}, true},
		{ZonePredicate{Col: "age", Op: OpLe, Val: 10}, false},
		{ZonePredicate{Col: "age", Op: OpEq, Val: 40}, true},
		{ZonePredicate{Col: "age", Op: OpEq, Val: 20}, false},
		{ZonePredicate{Col: "cat", Op: OpEq, StrV: "z", IsStr: true}, true},
		{ZonePredicate{Col: "cat", Op: OpEq, StrV: "a", IsStr: true}, false},
		{ZonePredicate{Col: "ghost", Op: OpEq, Val: 1}, false},
	}
	for i, c := range cases {
		if got := c.z.CanSkip(stats); got != c.want {
			t.Errorf("case %d: CanSkip = %v, want %v", i, got, c.want)
		}
	}
	// NE can only skip a constant partition equal to the value.
	constStats := data.TableStats{
		"age": &data.ColStats{Name: "age", Type: data.Float64, Min: 5, Max: 5, Rows: 2},
	}
	if !(ZonePredicate{Col: "age", Op: OpNe, Val: 5}).CanSkip(constStats) {
		t.Error("NE on constant partition should skip")
	}
	// A zone holding a NaN is never skipped, whatever the operator: NaN
	// compares equal to everything in the engine but is outside [Min, Max].
	constStats["age"].HasNaN = true
	for _, op := range []BinOpKind{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		for _, v := range []float64{-100, 5, 100} {
			if (ZonePredicate{Col: "age", Op: op, Val: v}).CanSkip(constStats) {
				t.Errorf("zone with NaN skipped for age %v %v", op, v)
			}
		}
	}
}

func TestFilterOp(t *testing.T) {
	f := &Filter{Child: scanFixture(2), Pred: NewBinOp(OpGt, Col("v"), Num(25))}
	out, err := Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if f.Stats().Rows != 3 {
		t.Fatalf("filter stats rows = %d", f.Stats().Rows)
	}
}

func TestProjectOp(t *testing.T) {
	p := &Project{
		Child: scanFixture(3),
		Exprs: []NamedExpr{
			{Name: "double_v", E: NewBinOp(OpMul, Col("v"), Num(2))},
			{Name: "id", E: Col("id")},
		},
	}
	out, err := Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumCols() != 2 || out.Col("double_v").F64[4] != 100 {
		t.Fatalf("project out: %v", out)
	}
	if got := p.Columns(); got[0] != "double_v" || got[1] != "id" {
		t.Fatalf("Columns = %v", got)
	}
}

func joinFixture() (*Scan, *Scan) {
	left := data.MustNewTable("l",
		data.NewInt("id", []int64{1, 2, 3, 4}),
		data.NewString("name", []string{"a", "b", "c", "d"}),
	)
	right := data.MustNewTable("r",
		data.NewInt("rid", []int64{2, 3, 3, 5}),
		data.NewFloat("score", []float64{0.2, 0.3, 0.35, 0.5}),
	)
	return NewScan(data.SinglePartition(left), "l", nil, 2),
		NewScan(data.SinglePartition(right), "r", nil, 2)
}

func TestHashJoin(t *testing.T) {
	l, r := joinFixture()
	j := &HashJoin{Left: l, Right: r, LeftKey: "l.id", RightKey: "r.rid"}
	out, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	// id 2 matches once, id 3 matches twice, ids 1/4 unmatched → 3 rows.
	if out.NumRows() != 3 {
		t.Fatalf("join rows = %d, want 3", out.NumRows())
	}
	if out.Col("l.name") == nil || out.Col("r.score") == nil {
		t.Fatalf("join cols = %v", out.Schema().Names())
	}
	for i := 0; i < out.NumRows(); i++ {
		if out.Col("l.id").I64[i] != out.Col("r.rid").I64[i] {
			t.Fatal("join key mismatch in output")
		}
	}
}

func TestHashJoinEmptyBuild(t *testing.T) {
	l, _ := joinFixture()
	empty := data.MustNewTable("r", data.NewInt("rid", nil), data.NewFloat("score", nil))
	r := NewScan(data.SinglePartition(empty), "r", nil, 2)
	j := &HashJoin{Left: l, Right: r, LeftKey: "l.id", RightKey: "r.rid"}
	out, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatalf("rows = %d, want 0", out.NumRows())
	}
}

func TestHashJoinBadKeys(t *testing.T) {
	l, r := joinFixture()
	j := &HashJoin{Left: l, Right: r, LeftKey: "l.id", RightKey: "ghost"}
	if _, err := Drain(j); err == nil {
		t.Fatal("expected missing build key error")
	}
	l2, r2 := joinFixture()
	j2 := &HashJoin{Left: l2, Right: r2, LeftKey: "ghost", RightKey: "r.rid"}
	if _, err := Drain(j2); err == nil {
		t.Fatal("expected missing probe key error")
	}
}

func TestAggregateOp(t *testing.T) {
	a := &GroupAggregate{
		Child: scanFixture(2),
		Aggs: []AggSpec{
			{Fn: AggCount, As: "n"},
			{Fn: AggSum, Col: "v", As: "sum_v"},
			{Fn: AggAvg, Col: "v", As: "avg_v"},
			{Fn: AggMin, Col: "v", As: "min_v"},
			{Fn: AggMax, Col: "v", As: "max_v"},
		},
	}
	out, err := Drain(a)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 {
		t.Fatalf("agg rows = %d", out.NumRows())
	}
	if got := a.Stats().Name; got != "Aggregate" {
		t.Fatalf("zero-key stats name %q, want Aggregate", got)
	}
	if out.Col("n").F64[0] != 5 || out.Col("sum_v").F64[0] != 150 ||
		out.Col("avg_v").F64[0] != 30 || out.Col("min_v").F64[0] != 10 ||
		out.Col("max_v").F64[0] != 50 {
		t.Fatalf("agg values: %v", out)
	}
}

func TestUnionOp(t *testing.T) {
	u := &Union{Inputs: []Operator{scanFixture(2), scanFixture(3)}}
	out, err := Drain(u)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 10 {
		t.Fatalf("union rows = %d", out.NumRows())
	}
}

func TestCollectStats(t *testing.T) {
	f := &Filter{Child: scanFixture(2), Pred: NewBinOp(OpGt, Col("v"), Num(0))}
	if _, err := Drain(f); err != nil {
		t.Fatal(err)
	}
	st := CollectStats(f)
	if len(st) != 2 {
		t.Fatalf("stats count = %d", len(st))
	}
	if st[0].Name == "" || st[1].Name == "" {
		t.Fatal("stats unnamed")
	}
	// Filter inclusive time must be >= scan time (it contains it).
	if st[0].WallNs < st[1].WallNs {
		t.Fatalf("inclusive timing violated: filter=%d scan=%d", st[0].WallNs, st[1].WallNs)
	}
}

func TestDrainEmptyResult(t *testing.T) {
	f := &Filter{Child: scanFixture(2), Pred: NewBinOp(OpGt, Col("v"), Num(1e9))}
	out, err := Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	// Schema preserved even when empty.
	if len(out.Schema()) != 3 {
		t.Fatalf("empty schema = %v", out.Schema().Names())
	}
}
