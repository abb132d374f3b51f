package relational

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"raven/internal/data"
)

// Tests for the pipeline breakers under Parallelize: hash joins probed
// inside exchange workers against a shared build table, and global
// aggregates folding per-worker partials.

// joinFixture builds a partitioned probe table (n rows, keys cycling over
// dimRows*2 so half the keys miss) and a dimension table of dimRows.
func breakerJoinFixture(t *testing.T, n, dimRows int) (*data.PartitionedTable, *data.PartitionedTable) {
	t.Helper()
	ids := make([]int64, n)
	keys := make([]int64, n)
	vs := make([]float64, n)
	grp := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		keys[i] = int64(i % (dimRows * 2))
		vs[i] = float64(i % 89)
		grp[i] = []string{"a", "b", "c"}[i*3/n]
	}
	fact := data.MustNewTable("fact",
		data.NewInt("id", ids), data.NewInt("k", keys),
		data.NewFloat("v", vs), data.NewString("grp", grp))
	pf, err := data.PartitionBy(fact, "grp")
	if err != nil {
		t.Fatal(err)
	}
	dk := make([]int64, dimRows)
	dv := make([]float64, dimRows)
	for i := 0; i < dimRows; i++ {
		dk[i] = int64(i)
		dv[i] = float64(i) * 1.5
	}
	dim := data.SinglePartition(data.MustNewTable("dim",
		data.NewInt("dk", dk), data.NewFloat("dv", dv)))
	return pf, dim
}

// refJoin is the naive reference inner equi-join: a nested loop over every
// (probe, build) row pair in probe-then-build row order, matching keys by
// value — float bits (NaNs match each other, -0 and +0 do not), integers
// as integers, anything else by rendered string. It shares none of the
// engine's build indexes.
func refJoin(left, right *data.Table, leftKey, rightKey string) *data.Table {
	lk, rk := left.Col(leftKey), right.Col(rightKey)
	match := func(i, j int) bool {
		switch {
		case lk.Type == data.Float64 && rk.Type == data.Float64:
			a, b := lk.F64[i], rk.F64[j]
			return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
		case lk.Type == data.Int64 && rk.Type == data.Int64:
			return lk.I64[i] == rk.I64[j]
		}
		return lk.AsString(i) == rk.AsString(j)
	}
	var li, ri []int
	for i := 0; i < left.NumRows(); i++ {
		for j := 0; j < right.NumRows(); j++ {
			if match(i, j) {
				li = append(li, i)
				ri = append(ri, j)
			}
		}
	}
	return data.MustNewTable("ref_join", append(left.Gather(li).Cols, right.Gather(ri).Cols...)...)
}

// findOp returns the first operator in the tree satisfying pred.
func findOp(root Operator, pred func(Operator) bool) Operator {
	if pred(root) {
		return root
	}
	for _, c := range root.Children() {
		if op := findOp(c, pred); op != nil {
			return op
		}
	}
	return nil
}

func TestParallelJoinPlanShape(t *testing.T) {
	pf, dim := breakerJoinFixture(t, 6000, 30)
	mk := func() Operator {
		return &HashJoin{
			Left:    &Filter{Child: NewScan(pf, "", nil, 128), Pred: NewBinOp(OpLt, Col("v"), Num(70))},
			Right:   NewScan(dim, "", nil, 128),
			LeftKey: "k", RightKey: "dk",
		}
	}
	serial, err := Drain(mk())
	if err != nil {
		t.Fatal(err)
	}
	root := mustParallelize(t, mk(), 4, 128)
	ex, ok := root.(*Exchange)
	if !ok {
		t.Fatalf("expected Exchange root, got %T", root)
	}
	phj := findOp(ex.Template, func(op Operator) bool { j, ok := op.(*HashJoin); return ok && j.dop == 4 })
	if phj == nil {
		t.Fatal("no HashJoin chain operator in the exchange segment")
	}
	got, err := Drain(root)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, serial, got)
	// The probe work must be distributed: every worker clone's stats were
	// absorbed into the template, whose row count equals the serial join's.
	if ps := phj.Stats(); ps.Rows != int64(serial.NumRows()) {
		t.Errorf("parallel join rows = %d, want %d", ps.Rows, serial.NumRows())
	}
}

// TestParallelJoinBigBuildSide checks that a build side larger than a
// morsel is itself parallelized (nested exchange) and that the chunked
// parallel index construction (> dop*minChunk build rows) stays
// byte-identical to the serial build.
func TestParallelJoinBigBuildSide(t *testing.T) {
	pf, _ := breakerJoinFixture(t, 9000, 30)
	bigDim, _ := breakerJoinFixture(t, 30000, 15000)
	mk := func() Operator {
		return &HashJoin{
			Left:    NewScan(pf, "f", nil, 256),
			Right:   NewScan(bigDim, "d", nil, 256),
			LeftKey: "f.k", RightKey: "d.id",
		}
	}
	serial, err := Drain(mk())
	if err != nil {
		t.Fatal(err)
	}
	root := mustParallelize(t, mk(), 4, 256)
	phjOp := findOp(root, func(op Operator) bool { j, ok := op.(*HashJoin); return ok && j.dop == 4 })
	if phjOp == nil {
		t.Fatal("no HashJoin chain operator in plan")
	}
	phj := phjOp.(*HashJoin)
	if _, ok := phj.Right.(*Exchange); !ok {
		t.Fatalf("big build side should be an Exchange, got %T", phj.Right)
	}
	got, err := Drain(root)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, serial, got)
}

func TestParallelJoinEmptyBuild(t *testing.T) {
	pf, dim := breakerJoinFixture(t, 4000, 20)
	mk := func() Operator {
		return &HashJoin{
			Left:    NewScan(pf, "", nil, 128),
			Right:   &Filter{Child: NewScan(dim, "", nil, 128), Pred: NewBinOp(OpLt, Col("dv"), Num(-1))},
			LeftKey: "k", RightKey: "dk",
		}
	}
	serial, err := Drain(mk())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(mustParallelize(t, mk(), 4, 128))
	if err != nil {
		t.Fatal(err)
	}
	if serial.NumRows() != 0 || got.NumRows() != 0 {
		t.Fatalf("empty build should join to 0 rows (serial %d, parallel %d)",
			serial.NumRows(), got.NumRows())
	}
	assertTablesEqual(t, serial, got)
}

func TestParallelJoinMissingKeys(t *testing.T) {
	pf, dim := breakerJoinFixture(t, 4000, 20)
	probeBad := &HashJoin{
		Left:  NewScan(pf, "", nil, 128),
		Right: NewScan(dim, "", nil, 128), LeftKey: "nope", RightKey: "dk",
	}
	if _, err := Drain(mustParallelize(t, probeBad, 4, 128)); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Fatalf("probe key error not propagated: %v", err)
	}
	buildBad := &HashJoin{
		Left:  NewScan(pf, "", nil, 128),
		Right: NewScan(dim, "", nil, 128), LeftKey: "k", RightKey: "nope",
	}
	if _, err := Drain(mustParallelize(t, buildBad, 4, 128)); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Fatalf("build key error not propagated: %v", err)
	}
}

func TestParallelAggregatePlanShape(t *testing.T) {
	pf, _ := breakerJoinFixture(t, 8000, 25)
	aggs := []AggSpec{
		{Fn: AggCount, As: "n"},
		{Fn: AggSum, Col: "v", As: "s"},
		{Fn: AggAvg, Col: "v", As: "a"},
		{Fn: AggMin, Col: "v", As: "lo"},
		{Fn: AggMax, Col: "v", As: "hi"},
	}
	mk := func() Operator {
		return &GroupAggregate{Child: NewScan(pf, "", nil, 256), Aggs: aggs}
	}
	serial, err := Drain(mk())
	if err != nil {
		t.Fatal(err)
	}
	root := mustParallelize(t, mk(), 4, 256)
	ma, ok := root.(*GroupAggregate)
	if !ok || !ma.exchanged {
		t.Fatalf("expected a zero-key GroupAggregate over exchanged partials at the root, got %T", root)
	}
	ex, ok := ma.Child.(*Exchange)
	if !ok {
		t.Fatalf("expected Exchange under the GroupAggregate, got %T", ma.Child)
	}
	if p, ok := ex.Template.(*PartialGroupAggregate); !ok || len(p.Keys) != 0 {
		t.Fatalf("expected a zero-key PartialGroupAggregate exchange template, got %T", ex.Template)
	}
	got, err := Drain(root)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, serial, got)
	// The zero-key breaker keeps the global aggregate's statistics names.
	for op, want := range map[Operator]string{ma: "Aggregate(merge)", ex.Template: "PartialAggregate"} {
		if got := op.Stats().Name; got != want {
			t.Fatalf("stats name %q, want %q", got, want)
		}
	}
}

func TestAggregateSmallInputStaysSerial(t *testing.T) {
	tbl := data.MustNewTable("small", data.NewFloat("v", []float64{1, 2, 3}))
	mkAgg := func() *GroupAggregate {
		return &GroupAggregate{
			Child: NewScan(data.SinglePartition(tbl), "", nil, 1024),
			Aggs:  []AggSpec{{Fn: AggAvg, Col: "v", As: "a"}},
		}
	}
	agg := mkAgg()
	root := mustParallelize(t, agg, 8, 1024)
	if root != Operator(agg) {
		t.Fatalf("small aggregate should stay serial, got %T", root)
	}
	serial, err := Drain(mkAgg())
	if err != nil {
		t.Fatal(err)
	}
	if got := serial.Col("a").F64[0]; got != 2 {
		t.Fatalf("avg = %v, want 2", got)
	}
}

// TestChunkedJoinIndexMatchesSerial drives the dop>1 chunked index
// construction directly (several chunks' worth of rows, heavily
// duplicated keys) and asserts the merged index is identical to a serial
// build: same keys, and every per-key row list in the same (ascending)
// order — for each typed index representation. Run under -race in CI,
// this pins the chunk-order merge guarantee the byte-identity of
// parallel joins rests on.
func TestChunkedJoinIndexMatchesSerial(t *testing.T) {
	n := 3*buildIndexMinChunk + 137
	keys := make([]int64, n)
	strs := make([]string, n)
	fls := make([]float64, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i % 61) // every key recurs in every chunk
		strs[i] = fmt.Sprintf("s%d", i%53)
		fls[i] = float64(i%47) / 8
	}
	rows := data.MustNewTable("b",
		data.NewInt("k", keys),
		data.NewString("s", strs),
		data.NewFloat("f", fls),
		data.DictEncode(data.NewString("d", strs)))
	assertSameLists := func(t *testing.T, dop int, want, got func(int) []int) {
		t.Helper()
		for i := 0; i < n; i++ {
			w, g := want(i), got(i)
			if len(g) != len(w) {
				t.Fatalf("dop=%d row %d: %d rows, want %d", dop, i, len(g), len(w))
			}
			for j := range w {
				if g[j] != w[j] {
					t.Fatalf("dop=%d row %d match %d: %d, want %d (merge order broken)",
						dop, i, j, g[j], w[j])
				}
			}
		}
	}
	for _, key := range []string{"k", "s", "f", "d"} {
		serial, err := newJoinBuild(rows, key, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, dop := range []int{2, 4, 7} {
			par, err := newJoinBuild(rows, key, dop)
			if err != nil {
				t.Fatal(err)
			}
			kc := rows.Col(key)
			assertSameLists(t, dop, serial.lookup(kc), par.lookup(kc))
		}
	}
}

// TestJoinBuildTypedIndexes pins which typed index each build key type
// gets, and that representation-mismatched probes fall back to AsString
// matching (int build probed by an equal-rendering string column).
func TestJoinBuildTypedIndexes(t *testing.T) {
	rows := data.MustNewTable("b",
		data.NewInt("i", []int64{5, 7, 5}),
		data.NewFloat("f", []float64{1.5, 2.5, 1.5}),
		data.NewString("s", []string{"a", "b", "a"}),
		data.DictEncode(data.NewString("d", []string{"x", "y", "x"})))
	for key, check := range map[string]func(bu *joinBuild) bool{
		"i": func(bu *joinBuild) bool { return bu.intIdx != nil },
		"f": func(bu *joinBuild) bool { return bu.bitsIdx != nil },
		"s": func(bu *joinBuild) bool { return bu.strIdx != nil },
		"d": func(bu *joinBuild) bool { return bu.codeLists != nil },
	} {
		bu, err := newJoinBuild(rows, key, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !check(bu) {
			t.Fatalf("key %q got the wrong index representation", key)
		}
	}
	// Mixed representations: int build, string probe rendering the same
	// values, must match like the old all-string index did.
	bu, err := newJoinBuild(rows, "i", 1)
	if err != nil {
		t.Fatal(err)
	}
	probe := data.NewString("i", []string{"5", "6"})
	look := bu.lookup(probe)
	if got := look(0); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("string probe of int build = %v, want [0 2]", got)
	}
	if got := look(1); len(got) != 0 {
		t.Fatalf("missing key matched %v", got)
	}
	// Dict probe with a foreign dictionary against a dict build.
	dbu, err := newJoinBuild(rows, "d", 1)
	if err != nil {
		t.Fatal(err)
	}
	foreign := data.DictEncode(data.NewString("d", []string{"y", "zzz"}))
	flook := dbu.lookup(foreign)
	if got := flook(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("foreign dict probe = %v, want [1]", got)
	}
	if got := flook(1); len(got) != 0 {
		t.Fatalf("foreign dict miss matched %v", got)
	}
}

func TestScanOfMalformedSegment(t *testing.T) {
	// A chain whose leaf is not a Scan must yield an error, not a panic
	// (scanOf used to dereference Children()[0] unconditionally).
	bad := &Filter{Child: &BatchSource{}, Pred: Num(1)}
	if _, err := scanOf(bad); err == nil || !strings.Contains(err.Error(), "not a Scan") {
		t.Fatalf("want leaf error, got %v", err)
	}
	if _, err := scanOf(&BatchSource{}); err == nil {
		t.Fatal("want error for scan-less leaf")
	}
	// A cyclic chain terminates with a depth error instead of spinning.
	f := &Filter{Pred: Num(1)}
	f.Child = f
	if _, err := scanOf(f); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("want depth error, got %v", err)
	}
}
