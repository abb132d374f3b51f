package relational

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"raven/internal/data"
)

// sortFixture builds an n-row multi-typed table with duplicate keys (so
// ties exercise the row-order tie-break), NaNs in the float key, and a
// string key available raw or dictionary-encoded.
func sortFixture(n int, encode bool) *data.PartitionedTable {
	rng := rand.New(rand.NewSource(42))
	ids := make([]int64, n)
	ks := make([]int64, n)
	fs := make([]float64, n)
	vs := make([]float64, n)
	ss := make([]string, n)
	grp := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		ks[i] = int64(rng.Intn(7))
		fs[i] = math.Round(rng.Float64()*50) / 10
		if i%53 == 17 {
			fs[i] = math.NaN()
		}
		vs[i] = math.Round(rng.Float64()*80) / 16 // NaN-free aggregate input
		ss[i] = fmt.Sprintf("s%02d", rng.Intn(23))
		grp[i] = fmt.Sprintf("g%d", i*4/n)
	}
	tbl := data.MustNewTable("sf",
		data.NewInt("id", ids), data.NewInt("k", ks), data.NewFloat("f", fs),
		data.NewFloat("v", vs), data.NewString("s", ss), data.NewString("grp", grp))
	if encode {
		tbl = data.DictEncodeTable(tbl)
	}
	pt, err := data.PartitionBy(tbl, "grp")
	if err != nil {
		panic(err)
	}
	return pt
}

// refSort is the naive reference: collect all rows, stable sort by the
// keys using string comparison for strings and the canonical NaN-last
// float ordering, cut to limit.
func refSort(t *testing.T, src Operator, keys []SortKey, limit int) *data.Table {
	t.Helper()
	buf, err := Drain(src)
	if err != nil {
		t.Fatal(err)
	}
	n := buf.NumRows()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	cols := make([]*data.Column, len(keys))
	for i, k := range keys {
		cols[i] = buf.Col(k.Col)
		if cols[i] == nil {
			t.Fatalf("missing sort key %q", k.Col)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := idx[a], idx[b]
		for ki, k := range keys {
			c := cols[ki]
			var cmp int
			switch c.Type {
			case data.String:
				sa, sb := c.AsString(ra), c.AsString(rb)
				switch {
				case sa < sb:
					cmp = -1
				case sa > sb:
					cmp = 1
				}
			default:
				cmp = cmpFloatKey(c.AsFloat(ra), c.AsFloat(rb))
			}
			if k.Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false // stable sort keeps input order on ties
	})
	if limit >= 0 && limit < n {
		idx = idx[:limit]
	}
	return buf.Gather(idx)
}

func TestSortMatchesReference(t *testing.T) {
	for _, encode := range []bool{false, true} {
		pt := sortFixture(3000, encode)
		keySets := [][]SortKey{
			{{Col: "k"}},
			{{Col: "k", Desc: true}},
			{{Col: "f"}},
			{{Col: "f", Desc: true}},
			{{Col: "s"}},
			{{Col: "s", Desc: true}},
			{{Col: "s"}, {Col: "k", Desc: true}},
			{{Col: "k"}, {Col: "f"}, {Col: "id", Desc: true}},
		}
		for _, keys := range keySets {
			for _, limit := range []int{-1, 0, 1, 17, 3000, 5000} {
				want := refSort(t, NewScan(pt, "", nil, 256), keys, limit)
				got, err := Drain(&Sort{Child: NewScan(pt, "", nil, 256), Keys: keys, Limit: limit})
				if err != nil {
					t.Fatalf("enc=%v keys=%v limit=%d: %v", encode, keys, limit, err)
				}
				assertTablesEqual(t, want, got)
			}
		}
	}
}

// TestSortParallelByteIdentical pins the tentpole guarantee: ordered
// output (PartialSort runs merged k-way at the Sort above the exchange) is
// byte-identical to the serial stable sort at every DOP, under both
// string representations, with and without a top-k limit.
func TestSortParallelByteIdentical(t *testing.T) {
	for _, encode := range []bool{false, true} {
		pt := sortFixture(4000, encode)
		keySets := [][]SortKey{
			{{Col: "s"}, {Col: "f", Desc: true}},
			{{Col: "f", Desc: true}},
			{{Col: "k"}, {Col: "s", Desc: true}},
		}
		for _, keys := range keySets {
			for _, limit := range []int{-1, 0, 9, 4000} {
				serial, err := Drain(&Sort{Child: NewScan(pt, "", nil, 128), Keys: keys, Limit: limit})
				if err != nil {
					t.Fatal(err)
				}
				for _, dop := range []int{2, 4, 7} {
					root := mustParallelize(t,
						&Sort{Child: NewScan(pt, "", nil, 128), Keys: keys, Limit: limit}, dop, 128)
					if s, ok := root.(*Sort); !ok || !s.exchanged {
						t.Fatalf("expected a Sort over exchanged runs at the root, got %T", root)
					}
					got, err := Drain(root)
					if err != nil {
						t.Fatalf("enc=%v keys=%v limit=%d dop=%d: %v", encode, keys, limit, dop, err)
					}
					assertTablesEqual(t, serial, got)
				}
			}
		}
	}
}

func TestLimitOperator(t *testing.T) {
	pt := sortFixture(1000, true)
	for _, limit := range []int{0, 1, 250, 1000, 2000} {
		want := refSort(t, NewScan(pt, "", nil, 128), []SortKey{{Col: "id"}}, -1)
		wantN := limit
		if wantN > want.NumRows() {
			wantN = want.NumRows()
		}
		for _, dop := range []int{1, 4} {
			var root Operator = &Limit{Child: NewScan(pt, "", nil, 128), N: limit}
			if dop > 1 {
				root = mustParallelize(t, root, dop, 128)
			}
			got, err := Drain(root)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumRows() != wantN {
				t.Fatalf("limit=%d dop=%d: got %d rows, want %d", limit, dop, got.NumRows(), wantN)
			}
		}
	}
	// Serial and parallel cutoffs agree row for row (the partitioned scan
	// order is the serial stream at any DOP).
	serial, err := Drain(&Limit{Child: NewScan(pt, "", nil, 128), N: 333})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Drain(mustParallelize(t, &Limit{Child: NewScan(pt, "", nil, 128), N: 333}, 4, 128))
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, serial, par)
}

func TestHavingFilterOverGroups(t *testing.T) {
	pt := sortFixture(2000, true)
	aggs := []AggSpec{{Fn: AggCount, As: "n"}, {Fn: AggAvg, Col: "v", As: "avg_v"}}
	mk := func() Operator {
		return &Filter{
			Child: &GroupAggregate{Child: NewScan(pt, "", nil, 128), Keys: []string{"s"}, Aggs: aggs},
			Pred:  NewBinOp(OpGt, Col("avg_v"), Num(2.4)),
		}
	}
	serial, err := Drain(mk())
	if err != nil {
		t.Fatal(err)
	}
	if serial.NumRows() == 0 || serial.NumRows() == 23 {
		t.Fatalf("HAVING kept %d of 23 groups; want a strict non-empty subset", serial.NumRows())
	}
	for i := 0; i < serial.NumRows(); i++ {
		if v := serial.Col("avg_v").F64[i]; !(v > 2.4) {
			t.Fatalf("row %d: avg_v %v not > 2.4", i, v)
		}
	}
	for _, dop := range []int{2, 4} {
		got, err := Drain(mustParallelize(t, mk(), dop, 128))
		if err != nil {
			t.Fatal(err)
		}
		assertTablesEqual(t, serial, got)
	}
}

// TestSortTopKOverGroups runs the canonical ranking shape at the operator
// level: Sort(Having(GroupAggregate)) with a limit, serial vs parallel.
func TestSortTopKOverGroups(t *testing.T) {
	pt := sortFixture(3000, true)
	aggs := []AggSpec{{Fn: AggAvg, Col: "v", As: "avg_v"}}
	mk := func() Operator {
		return &Sort{
			Child: &Filter{
				Child: &GroupAggregate{Child: NewScan(pt, "", nil, 128), Keys: []string{"s"}, Aggs: aggs},
				Pred:  NewBinOp(OpGt, Col("avg_v"), Num(1.0)),
			},
			Keys:  []SortKey{{Col: "avg_v", Desc: true}},
			Limit: 5,
		}
	}
	serial, err := Drain(mk())
	if err != nil {
		t.Fatal(err)
	}
	if serial.NumRows() != 5 {
		t.Fatalf("top-5 returned %d rows", serial.NumRows())
	}
	prev := math.Inf(1)
	for i := 0; i < 5; i++ {
		v := serial.Col("avg_v").F64[i]
		if v > prev {
			t.Fatalf("row %d not descending: %v after %v", i, v, prev)
		}
		prev = v
	}
	for _, dop := range []int{2, 4} {
		got, err := Drain(mustParallelize(t, mk(), dop, 128))
		if err != nil {
			t.Fatal(err)
		}
		assertTablesEqual(t, serial, got)
	}
}

// TestSortEmptyAndZeroRowViews extends the PR 4 empty-view invariant to
// the sort path: Sort, a HAVING Filter and Limit over an always-false
// filter (whose FilterCount all-false result is a zero-row *view* —
// storage present, dictionaries shared) must not panic and must produce
// the empty result; sortTable over such a view returns without building
// comparators.
func TestSortEmptyAndZeroRowViews(t *testing.T) {
	pt := sortFixture(500, true)
	never := func() Operator {
		return &Filter{Child: NewScan(pt, "", nil, 64), Pred: In(Col("s"), "absent")}
	}
	for name, mk := range map[string]func() Operator{
		"sort": func() Operator {
			return &Sort{Child: never(), Keys: []SortKey{{Col: "s"}}, Limit: -1}
		},
		"sort-limit": func() Operator {
			return &Sort{Child: never(), Keys: []SortKey{{Col: "f", Desc: true}}, Limit: 3}
		},
		"having": func() Operator {
			return &Filter{
				Child: &GroupAggregate{Child: never(), Keys: []string{"s"},
					Aggs: []AggSpec{{Fn: AggCount, As: "n"}}},
				Pred: NewBinOp(OpGt, Col("n"), Num(0)),
			}
		},
		"limit": func() Operator {
			return &Limit{Child: never(), N: 10}
		},
		"sort-over-empty-group": func() Operator {
			return &Sort{
				Child: &GroupAggregate{Child: never(), Keys: []string{"s"},
					Aggs: []AggSpec{{Fn: AggAvg, Col: "f", As: "a"}}},
				Keys: []SortKey{{Col: "a"}}, Limit: 2,
			}
		},
	} {
		for _, dop := range []int{1, 4} {
			var root Operator = mk()
			if dop > 1 {
				root = mustParallelize(t, root, dop, 64)
			}
			got, err := Drain(root)
			if err != nil {
				t.Fatalf("%s dop=%d: %v", name, dop, err)
			}
			if got.NumRows() != 0 {
				t.Fatalf("%s dop=%d: got %d rows, want 0", name, dop, got.NumRows())
			}
		}
	}
	// sortTable directly over an all-false FilterCount zero-row view.
	tbl := data.DictEncodeTable(data.MustNewTable("z",
		data.NewString("s", []string{"a", "b"}), data.NewFloat("f", []float64{1, 2})))
	view := tbl.FilterCount([]bool{false, false}, 0)
	var scratch sortScratch
	out, err := sortTable(view, []SortKey{{Col: "s"}}, -1, 0, &scratch)
	if err != nil || out != nil {
		t.Fatalf("sortTable over zero-row view: out=%v err=%v (want nil, nil)", out, err)
	}
}

// TestPartialSortSingleRowNoAlloc pins the hot-path contract: a
// PartialSort over single-row batches (the shape of sorting above
// single-row groups) passes batches through without building comparators
// or allocating per batch, and multi-row batches reuse the scratch index
// buffer and the per-dictionary rank tables.
func TestPartialSortSingleRowNoAlloc(t *testing.T) {
	tbl := data.DictEncodeTable(data.MustNewTable("one",
		data.NewString("s", []string{"x"}), data.NewFloat("f", []float64{3})))
	batch := tbl.Slice(0, 1)
	src := &BatchSource{cols: []string{"s", "f"}}
	ps := &PartialSort{Child: src, Keys: []SortKey{{Col: "s"}, {Col: "f", Desc: true}}, Limit: -1}
	if err := ps.Open(nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		src.Load(batch)
		out, err := ps.Next()
		if err != nil {
			t.Fatal(err)
		}
		if out != batch {
			t.Fatal("single-row batch was not passed through")
		}
		if _, err := ps.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("PartialSort allocated %.1f times per single-row batch; want 0", allocs)
	}

	// Multi-row batches: the dictionary rank table is built once per
	// dictionary and the index buffer is reused across batches.
	big := data.DictEncodeTable(data.MustNewTable("many",
		data.NewString("s", []string{"c", "a", "b", "a", "c", "b", "a", "z"}),
		data.NewFloat("f", []float64{1, 2, 3, 4, 5, 6, 7, 8})))
	dict := big.Col("s").Dict
	var scratch sortScratch
	r1 := scratch.dictRanks(dict)
	r2 := scratch.dictRanks(dict)
	if &r1[0] != &r2[0] {
		t.Fatal("dictRanks rebuilt the rank table for a cached dictionary")
	}
	// Rank order reflects value order: a < b < c < z.
	want := []int32{2, 0, 1, 3} // codes were assigned first-occurrence: c,a,b,z
	for code, rank := range want {
		if r1[code] != rank {
			t.Fatalf("code %d (%q): rank %d, want %d", code, dict.Value(int32(code)), r1[code], rank)
		}
	}
	cmp, err := scratch.comparator(big, []SortKey{{Col: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	first := scratch.sortIndexes(big.NumRows(), -1, cmp)
	firstPtr := &first[0]
	second := scratch.sortIndexes(big.NumRows(), -1, cmp)
	if &second[0] != firstPtr {
		t.Fatal("sortIndexes reallocated the index buffer across batches")
	}
}

// TestMergeSortRunsTieBreak pins the k-way merge determinism: equal keys
// must come out in run (= serial batch) order even when later runs hold
// "earlier-looking" rows — for runs arriving sorted from an exchange and
// for runs the Sort cuts from its serial input batches alike.
func TestMergeSortRunsTieBreak(t *testing.T) {
	mkRun := func(tag string, keys ...int64) *data.Table {
		tags := make([]string, len(keys))
		for i := range tags {
			tags[i] = fmt.Sprintf("%s%d", tag, i)
		}
		return data.MustNewTable("run", data.NewInt("k", keys), data.NewString("tag", tags))
	}
	runs := []*data.Table{
		mkRun("a", 1, 2, 2, 5),
		mkRun("b", 1, 1, 2, 9),
		mkRun("c", 2),
	}
	wantTags := []string{"a0", "b0", "b1", "a1", "a2", "b2", "c0", "a3", "b3"}
	for _, exchanged := range []bool{true, false} {
		src := &stubRuns{cols: []string{"k", "tag"}, runs: runs}
		m := &Sort{Child: src, Keys: []SortKey{{Col: "k"}}, Limit: -1, exchanged: exchanged}
		got, err := Drain(m)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != len(wantTags) {
			t.Fatalf("exchanged=%v: got %d rows, want %d", exchanged, got.NumRows(), len(wantTags))
		}
		for i, w := range wantTags {
			if g := got.Col("tag").AsString(i); g != w {
				t.Fatalf("exchanged=%v row %d: tag %s, want %s", exchanged, i, g, w)
			}
		}
		// With a limit the merge cuts after limit rows of the same order.
		src2 := &stubRuns{cols: []string{"k", "tag"}, runs: runs}
		m2 := &Sort{Child: src2, Keys: []SortKey{{Col: "k"}}, Limit: 4, exchanged: exchanged}
		got2, err := Drain(m2)
		if err != nil {
			t.Fatal(err)
		}
		if got2.NumRows() != 4 {
			t.Fatalf("exchanged=%v limit: got %d rows, want 4", exchanged, got2.NumRows())
		}
		for i, w := range wantTags[:4] {
			if g := got2.Col("tag").AsString(i); g != w {
				t.Fatalf("exchanged=%v limit row %d: tag %s, want %s", exchanged, i, g, w)
			}
		}
	}
}

// stubRuns replays pre-built sorted runs as an operator.
type stubRuns struct {
	cols  []string
	runs  []*data.Table
	pos   int
	stats OpStats
}

func (s *stubRuns) Columns() []string    { return s.cols }
func (s *stubRuns) Open(*Env) error      { s.pos = 0; return nil }
func (s *stubRuns) Close() error         { return nil }
func (s *stubRuns) Stats() *OpStats      { return &s.stats }
func (s *stubRuns) Children() []Operator { return nil }
func (s *stubRuns) Next() (*data.Table, error) {
	if s.pos >= len(s.runs) {
		return nil, nil
	}
	r := s.runs[s.pos]
	s.pos++
	return r, nil
}

// TestSortReuse re-opens a parallel ordered plan: exchanges and sort
// scratches must survive re-Open (the session reuse path).
func TestSortReuse(t *testing.T) {
	pt := sortFixture(2500, true)
	root := mustParallelize(t,
		&Sort{Child: NewScan(pt, "", nil, 128), Keys: []SortKey{{Col: "s"}, {Col: "id", Desc: true}}, Limit: 40},
		4, 128)
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

// TestSortMissingKeyErrorsUniformly: a missing sort key must error the
// same way for zero-, single- and multi-row inputs (the early-outs
// validate before returning), and through the k-way merge.
func TestSortMissingKeyErrorsUniformly(t *testing.T) {
	var scratch sortScratch
	mk := func(n int) *data.Table {
		vals := make([]float64, n)
		return data.MustNewTable("t", data.NewFloat("v", vals))
	}
	for _, n := range []int{0, 1, 5} {
		_, err := sortTable(mk(n), []SortKey{{Col: "ghost"}}, -1, 0, &scratch)
		if err == nil || !strings.Contains(err.Error(), `sort key column "ghost" missing`) {
			t.Fatalf("n=%d: err = %v", n, err)
		}
	}
	for _, exchanged := range []bool{true, false} {
		src := &stubRuns{cols: []string{"v"}, runs: []*data.Table{mk(1)}}
		m := &Sort{Child: src, Keys: []SortKey{{Col: "ghost"}}, Limit: -1, exchanged: exchanged}
		if err := m.Open(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Next(); err == nil || !strings.Contains(err.Error(), "missing") {
			t.Fatalf("exchanged=%v single-run merge err = %v", exchanged, err)
		}
	}
}

// TestPartialSortDrainsMultiBatchInput pins the structural invariant the
// k-way merge depends on: PartialSort drains its child to exhaustion per
// Next, so even a chain that emits several batches for one morsel yields
// ONE internally sorted run (concatenating separately sorted batches
// would hand the merge an unsorted "run" and silently misorder rows).
func TestPartialSortDrainsMultiBatchInput(t *testing.T) {
	b1 := data.MustNewTable("b1", data.NewInt("k", []int64{5, 1, 9}))
	b2 := data.MustNewTable("b2", data.NewInt("k", []int64{4, 8, 0}))
	src := &stubRuns{cols: []string{"k"}, runs: []*data.Table{b1, b2}}
	ps := &PartialSort{Child: src, Keys: []SortKey{{Col: "k"}}, Limit: -1}
	if err := ps.Open(nil); err != nil {
		t.Fatal(err)
	}
	run, err := ps.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 1, 4, 5, 8, 9}
	if run.NumRows() != len(want) {
		t.Fatalf("run has %d rows, want %d (both batches drained into one run)", run.NumRows(), len(want))
	}
	for i, w := range want {
		if got := run.Col("k").I64[i]; got != w {
			t.Fatalf("row %d: %d, want %d", i, got, w)
		}
	}
	if next, err := ps.Next(); err != nil || next != nil {
		t.Fatalf("second Next = (%v, %v), want end of stream", next, err)
	}
}

// TestSortOffsetMatchesReference pins OFFSET semantics on the sort
// breaker: the result is the [offset, offset+limit) window of the full
// stable sort, serial and parallel byte-identical at every DOP.
func TestSortOffsetMatchesReference(t *testing.T) {
	for _, encode := range []bool{false, true} {
		pt := sortFixture(2000, encode)
		keys := []SortKey{{Col: "s"}, {Col: "f", Desc: true}}
		full := refSort(t, NewScan(pt, "", nil, 128), keys, -1)
		n := full.NumRows()
		for _, c := range []struct{ limit, offset int }{
			{-1, 1}, {-1, 500}, {-1, 2000}, {-1, 5000},
			{10, 1}, {10, 500}, {10, 1995}, {0, 7}, {3000, 40},
		} {
			lo := c.offset
			if lo > n {
				lo = n
			}
			hi := n
			if c.limit >= 0 && lo+c.limit < n {
				hi = lo + c.limit
			}
			want := full.Slice(lo, hi)
			serial, err := Drain(&Sort{Child: NewScan(pt, "", nil, 128), Keys: keys, Limit: c.limit, Offset: c.offset})
			if err != nil {
				t.Fatalf("enc=%v limit=%d offset=%d: %v", encode, c.limit, c.offset, err)
			}
			if want.NumRows() == 0 {
				if serial.NumRows() != 0 {
					t.Fatalf("enc=%v limit=%d offset=%d: got %d rows, want 0", encode, c.limit, c.offset, serial.NumRows())
				}
			} else {
				assertTablesEqual(t, want, serial)
			}
			for _, dop := range []int{2, 5} {
				root := mustParallelize(t,
					&Sort{Child: NewScan(pt, "", nil, 128), Keys: keys, Limit: c.limit, Offset: c.offset}, dop, 128)
				got, err := Drain(root)
				if err != nil {
					t.Fatalf("enc=%v limit=%d offset=%d dop=%d: %v", encode, c.limit, c.offset, dop, err)
				}
				if got.NumRows() != serial.NumRows() {
					t.Fatalf("enc=%v limit=%d offset=%d dop=%d: %d rows, want %d",
						encode, c.limit, c.offset, dop, got.NumRows(), serial.NumRows())
				}
				if serial.NumRows() > 0 {
					assertTablesEqual(t, serial, got)
				}
			}
		}
	}
}

// TestLimitOffsetOperator pins the positional window without ORDER BY:
// skip-then-cut over the deterministic batch stream, serial == parallel.
func TestLimitOffsetOperator(t *testing.T) {
	pt := sortFixture(1000, true)
	full, err := Drain(NewScan(pt, "", nil, 128))
	if err != nil {
		t.Fatal(err)
	}
	n := full.NumRows()
	for _, c := range []struct{ limit, offset int }{
		{5, 0}, {5, 3}, {5, 997}, {5, 1000}, {5, 1500},
		{-1, 0}, {-1, 400}, {-1, 1000}, {0, 10}, {2000, 130},
	} {
		lo := c.offset
		if lo > n {
			lo = n
		}
		hi := n
		if c.limit >= 0 && lo+c.limit < n {
			hi = lo + c.limit
		}
		want := full.Slice(lo, hi)
		for _, dop := range []int{1, 4} {
			var root Operator = &Limit{Child: NewScan(pt, "", nil, 128), N: c.limit, Offset: c.offset}
			if dop > 1 {
				root = mustParallelize(t, root, dop, 128)
			}
			got, err := Drain(root)
			if err != nil {
				t.Fatalf("limit=%d offset=%d dop=%d: %v", c.limit, c.offset, dop, err)
			}
			if got.NumRows() != want.NumRows() {
				t.Fatalf("limit=%d offset=%d dop=%d: %d rows, want %d",
					c.limit, c.offset, dop, got.NumRows(), want.NumRows())
			}
			if want.NumRows() > 0 {
				assertTablesEqual(t, want, got)
			}
		}
	}
}
