package relational

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"raven/internal/data"
)

// ---- naive reference aggregator ------------------------------------------

// refGroup is one group of the naive reference aggregator.
type refGroup struct {
	keys             []string // rendered key values (AsString)
	count            float64
	sums, mins, maxs []float64
	// mags sums each aggregate's |values|: the scale of the rounding error
	// a different addition tree may put into its SUM.
	mags []float64
}

// refGroupAggregate is an independent, deliberately naive grouped
// aggregator: one pass over the whole table, a map keyed on the rendered
// key tuple, groups in first-occurrence order. It shares the engine's
// value semantics (AVG = SUM/COUNT, MIN/MAX ignore NaN via `<`/`>`
// comparisons, float keys group NaNs together) but none of its machinery
// — no batches, no partials, no dictionaries.
func refGroupAggregate(tb *data.Table, keys []string, aggs []AggSpec) []*refGroup {
	keyCols := make([]*data.Column, len(keys))
	for i, k := range keys {
		keyCols[i] = tb.Col(k)
	}
	aggCols := make([]*data.Column, len(aggs))
	for gi, g := range aggs {
		if g.Fn != AggCount {
			aggCols[gi] = tb.Col(g.Col)
		}
	}
	idx := make(map[string]*refGroup)
	var order []*refGroup
	for r := 0; r < tb.NumRows(); r++ {
		parts := make([]string, len(keyCols))
		for i, c := range keyCols {
			// Render float keys by their bits, every NaN payload as one
			// "NaN": NaNs form one group, −0 and +0 two.
			if v := c.F64; c.Type == data.Float64 && math.IsNaN(v[r]) {
				parts[i] = "NaN"
			} else if c.Type == data.Float64 {
				parts[i] = strconv.FormatUint(math.Float64bits(v[r]), 16)
			} else {
				parts[i] = c.AsString(r)
			}
		}
		key := strings.Join(parts, "\x1f")
		g, ok := idx[key]
		if !ok {
			vals := make([]string, len(keyCols))
			for i, c := range keyCols {
				vals[i] = c.AsString(r)
			}
			g = newRefGroup(vals, len(aggs))
			idx[key] = g
			order = append(order, g)
		}
		g.count++
		for gi, c := range aggCols {
			if c == nil {
				continue
			}
			v := c.AsFloat(r)
			g.sums[gi] += v
			g.mags[gi] += math.Abs(v)
			if v < g.mins[gi] {
				g.mins[gi] = v
			}
			if v > g.maxs[gi] {
				g.maxs[gi] = v
			}
		}
	}
	return order
}

// newRefGroup is an empty reference group: MIN/MAX at ±Inf, which every
// value replaces.
func newRefGroup(keys []string, nAggs int) *refGroup {
	g := &refGroup{keys: keys,
		sums: make([]float64, nAggs),
		mags: make([]float64, nAggs),
		mins: make([]float64, nAggs),
		maxs: make([]float64, nAggs)}
	for i := range g.mins {
		g.mins[i] = math.Inf(1)
		g.maxs[i] = math.Inf(-1)
	}
	return g
}

// refAggregate is the naive reference global aggregate: the reference
// grouping with no keys, whose one group is every row — or, over an empty
// table, the identity row.
func refAggregate(tb *data.Table, aggs []AggSpec) *refGroup {
	if groups := refGroupAggregate(tb, nil, aggs); len(groups) == 1 {
		return groups[0]
	}
	return newRefGroup(nil, len(aggs))
}

// ---- property test --------------------------------------------------------

// propAggs is the aggregate list the property tests run: every function,
// over both a well-behaved and an edge-valued column.
var propAggs = []AggSpec{
	{Fn: AggCount, As: "n"},
	{Fn: AggSum, Col: "v", As: "sum_v"},
	{Fn: AggAvg, Col: "edge", As: "avg_edge"},
	{Fn: AggMin, Col: "edge", As: "min_edge"},
	{Fn: AggMax, Col: "v", As: "max_v"},
}

// propEdgeValues includes NaN: sums poison to NaN while MIN/MAX skip it —
// both the engine and the reference must agree.
var propEdgeValues = []float64{0, 1, -1, 1e15, -1e15, 1e-12, 97.25, -97.25, math.NaN()}

// propIntKeys and propFloatKeys are the typed key values the skewed shape
// draws from: the int64 extremes around the sign and the word boundary,
// and float keys with −0 next to +0 (two groups) and two distinct NaN
// payloads (one group).
var (
	propIntKeys   = []int64{math.MinInt64, math.MaxInt64, -1, 0, 7, 1 << 40, -(1 << 40)}
	propFloatKeys = []float64{0, math.Copysign(0, -1), 1.5, -2, 1e300,
		math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef)}
)

// randGroupTable builds a randomized grouping fixture. shape picks the
// distribution: "skew" (zipf-ish hot keys, empty-string key present),
// "one" (all rows one group), "distinct" (every row its own group, over
// at least ten 128-row batches), "empty" (no rows), "wide" (skewed typed
// keys, but a string key of DefaultDenseGroupLimit+1 values, so its
// dictionary is one entry too large for dense grouping).
func randGroupTable(rng *rand.Rand, shape string) *data.Table {
	const wide = DefaultDenseGroupLimit + 1
	rows := 200 + rng.Intn(2800)
	switch shape {
	case "empty":
		rows = 0
	case "one":
		rows = 1 + rng.Intn(400)
	case "distinct":
		rows = 1280 + rng.Intn(1720)
	case "wide":
		rows = 2*wide + rng.Intn(500)
	}
	sk := make([]string, rows)
	fk := make([]float64, rows)
	ik := make([]int64, rows)
	bk := make([]bool, rows)
	vs := make([]float64, rows)
	edge := make([]float64, rows)
	nKeys := 1 + rng.Intn(24)
	for i := 0; i < rows; i++ {
		switch shape {
		case "one":
			sk[i], fk[i], ik[i], bk[i] = "only", 1.5, 7, true
		case "distinct":
			sk[i], fk[i], ik[i], bk[i] = fmt.Sprintf("u%d", i), float64(i), int64(i), i%2 == 0
			switch i {
			case 1: // −0 next to row 0's +0: still its own group
				fk[i] = math.Copysign(0, -1)
			case 2:
				ik[i] = math.MinInt64
			case 3:
				ik[i] = math.MaxInt64
			case 4:
				ik[i] = -1
			}
		default:
			k := rng.Intn(nKeys)
			if rng.Float64() < 0.6 {
				k = k % 3 // hot keys
			}
			if k == 0 {
				sk[i] = "" // empty-string group key
			} else {
				sk[i] = fmt.Sprintf("k%d", k)
			}
			fk[i] = propFloatKeys[k%len(propFloatKeys)]
			if rng.Float64() < 0.1 {
				// NaN float keys, whatever their payload, form one group.
				fk[i] = propFloatKeys[5+rng.Intn(2)]
			}
			ik[i] = propIntKeys[k%len(propIntKeys)]
			bk[i] = k%2 == 1
			if shape == "wide" {
				// Every value once, then at random.
				w := i
				if i >= wide {
					w = rng.Intn(wide)
				}
				sk[i] = fmt.Sprintf("w%d", w)
			}
		}
		vs[i] = rng.NormFloat64() * 100
		edge[i] = propEdgeValues[rng.Intn(len(propEdgeValues))]
	}
	return data.MustNewTable("t",
		data.NewString("sk", sk), data.NewFloat("fk", fk), data.NewInt("ik", ik),
		data.NewBool("bk", bk), data.NewFloat("v", vs), data.NewFloat("edge", edge))
}

// assertMatchesReference checks a grouped result table against the naive
// reference: group set, order, rendered keys, COUNT/MIN/MAX exactly; SUM
// and AVG within relative tolerance when exact is false (multi-batch
// folds use a different float addition tree than the reference's single
// row-order pass; single-batch runs must match bit-for-bit). The tolerance
// is relative to the summed magnitudes, not to the sum: where values
// cancel, another addition order legitimately leaves a different residue.
func assertMatchesReference(t *testing.T, label string, got *data.Table, keys []string, aggs []AggSpec, ref []*refGroup, exact bool) {
	t.Helper()
	if got.NumRows() != len(ref) {
		t.Fatalf("%s: %d groups, want %d", label, got.NumRows(), len(ref))
	}
	close := func(a, b, mag float64) bool {
		if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
			return true
		}
		if exact {
			return false
		}
		return math.Abs(a-b) <= 1e-9*max(math.Abs(a), math.Abs(b), mag)
	}
	for r, g := range ref {
		for i, k := range keys {
			if got.Col(k).AsString(r) != g.keys[i] {
				t.Fatalf("%s: group %d key %s = %q, want %q",
					label, r, k, got.Col(k).AsString(r), g.keys[i])
			}
		}
		for gi, spec := range aggs {
			var want float64
			mag := g.mags[gi]
			switch spec.Fn {
			case AggCount:
				want = g.count
			case AggSum:
				want = g.sums[gi]
			case AggAvg:
				if g.count > 0 {
					want, mag = g.sums[gi]/g.count, mag/g.count
				}
			case AggMin:
				want = g.mins[gi]
			case AggMax:
				want = g.maxs[gi]
			}
			gotV := got.Col(spec.As).F64[r]
			// SUM/AVG may legitimately differ in the last bits across
			// addition trees when multi-batch (exact=false); COUNT/MIN/MAX
			// are exact regardless of batching.
			ok := close(gotV, want, mag)
			if spec.Fn != AggSum && spec.Fn != AggAvg {
				ok = gotV == want || (math.IsNaN(gotV) && math.IsNaN(want))
			}
			if !ok {
				t.Fatalf("%s: group %d %s = %v, want %v", label, r, spec.As, gotV, want)
			}
		}
	}
}

// TestGroupAggregatePropertyVsReference drives randomized tables —
// skewed, one-group, all-distinct, empty and too-wide-for-dense shapes,
// with NaN (two payloads), −0 and +0, int64 extremes, bool keys, empty
// strings and magnitude-edge values — through the aggregation operator in
// every configuration (single batch, multi-batch, dict-encoded, parallel)
// and checks each against the naive reference, plus byte-identity between
// the configurations themselves. Every typed key index is covered: single
// int64, float64, bool and string keys, key tuples, hash grouping over a
// dictionary column (the wide shape) — and no keys at all, the global
// aggregate.
func TestGroupAggregatePropertyVsReference(t *testing.T) {
	shapes := []string{"skew", "skew", "skew", "one", "distinct", "empty", "distinct", "wide"}
	keySets := [][]string{nil, {"sk"}, {"ik"}, {"fk"}, {"bk"}, {"sk", "ik"}, {"bk", "fk"}, {"sk", "fk", "ik"}}
	for seed := int64(1); seed <= int64(len(shapes)); seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := shapes[int(seed-1)%len(shapes)]
		tb := randGroupTable(rng, shape)
		enc := data.SinglePartition(data.DictEncodeTable(tb))
		if _, dense := denseKey([]*data.Column{enc.Parts[0].Table.Col("sk")}); dense == (shape == "wide") {
			t.Fatalf("seed=%d shape=%s: dense grouping on sk = %v", seed, shape, dense)
		}
		for _, keys := range keySets {
			ref := refGroupAggregate(tb, keys, propAggs)
			if len(keys) == 0 {
				ref = []*refGroup{refAggregate(tb, propAggs)}
			}
			label := fmt.Sprintf("seed=%d shape=%s keys=%v", seed, shape, keys)

			// Single batch: the operator's per-group accumulation order is
			// exactly the reference's row order, so results match
			// bit-for-bit.
			one := data.SinglePartition(tb)
			batchAll := tb.NumRows() + 1
			serialOne, err := Drain(&GroupAggregate{
				Child: NewScan(one, "", nil, batchAll), Keys: keys, Aggs: propAggs})
			if err != nil {
				t.Fatalf("%s single-batch: %v", label, err)
			}
			assertMatchesReference(t, label+" single-batch", serialOne, keys, propAggs, ref, true)

			// Multi-batch serial: same groups/order, SUM/AVG within
			// tolerance of the reference (different addition tree), and the
			// baseline every other configuration must reproduce exactly.
			mk := func(src *data.PartitionedTable) Operator {
				return &GroupAggregate{Child: NewScan(src, "", nil, 128), Keys: keys, Aggs: propAggs}
			}
			serial, err := Drain(mk(one))
			if err != nil {
				t.Fatalf("%s serial: %v", label, err)
			}
			assertMatchesReference(t, label+" serial", serial, keys, propAggs, ref, false)

			got, err := Drain(mk(enc))
			if err != nil {
				t.Fatalf("%s dict: %v", label, err)
			}
			assertTablesEqual(t, serial, got)
			for _, dop := range []int{2, 4} {
				for name, src := range map[string]*data.PartitionedTable{"raw": one, "dict": enc} {
					got, err := Drain(mustParallelize(t, mk(src), dop, 128))
					if err != nil {
						t.Fatalf("%s %s dop=%d: %v", label, name, dop, err)
					}
					assertTablesEqual(t, serial, got)
				}
			}
		}
	}
}

// TestGroupAggregateEmptyViews pins the FilterCount all-false regression:
// grouped and global aggregation over empty views — an all-false-filtered
// table used as a source, and an always-false Filter feeding the
// aggregate — must produce the zero-group / identity results, serially
// and in parallel.
func TestGroupAggregateEmptyViews(t *testing.T) {
	tb := data.DictEncodeTable(data.MustNewTable("t",
		data.NewString("g", []string{"a", "b", "a", "c"}),
		data.NewFloat("v", []float64{1, 2, 3, 4})))
	aggs := []AggSpec{
		{Fn: AggCount, As: "n"},
		{Fn: AggSum, Col: "v", As: "s"},
		{Fn: AggAvg, Col: "v", As: "m"},
		{Fn: AggMin, Col: "v", As: "lo"},
		{Fn: AggMax, Col: "v", As: "hi"},
	}
	empty := tb.Filter(make([]bool, tb.NumRows())) // all-false view
	sources := map[string]func() Operator{
		"filtered-view": func() Operator {
			return NewScan(data.SinglePartition(empty), "", nil, 2)
		},
		"false-filter": func() Operator {
			return &Filter{Child: NewScan(data.SinglePartition(tb), "", nil, 2),
				Pred: NewBinOp(OpEq, Col("g"), Str("absent"))}
		},
	}
	for name, src := range sources {
		for _, dop := range []int{1, 4} {
			grouped, err := Drain(mustParallelize(t,
				&GroupAggregate{Child: src(), Keys: []string{"g"}, Aggs: aggs}, dop, 2))
			if err != nil {
				t.Fatalf("%s grouped dop=%d: %v", name, dop, err)
			}
			if grouped.NumRows() != 0 {
				t.Fatalf("%s grouped dop=%d: %d groups over empty input", name, dop, grouped.NumRows())
			}
			global, err := Drain(mustParallelize(t,
				&GroupAggregate{Child: src(), Aggs: aggs}, dop, 2))
			if err != nil {
				t.Fatalf("%s global dop=%d: %v", name, dop, err)
			}
			if global.NumRows() != 1 {
				t.Fatalf("%s global dop=%d: %d rows", name, dop, global.NumRows())
			}
			// Identity results: COUNT/SUM/AVG zero, MIN/MAX at their fold
			// identities.
			for col, want := range map[string]float64{
				"n": 0, "s": 0, "m": 0, "lo": math.Inf(1), "hi": math.Inf(-1)} {
				if got := global.Col(col).F64[0]; got != want {
					t.Fatalf("%s global dop=%d: %s = %v, want %v", name, dop, col, got, want)
				}
			}
		}
	}
}

// TestGroupAggregateEmptyTyped pins the zero-group regression: an empty
// grouped result must carry the operator's static schema — typed key and
// aggregate columns — not a name-only fallback, so downstream operators
// (sorts, filters, appends) see the same layout as the non-empty case.
func TestGroupAggregateEmptyTyped(t *testing.T) {
	tb := data.DictEncodeTable(data.MustNewTable("t",
		data.NewString("g", []string{"a", "b"}),
		data.NewInt("k", []int64{1, 2}),
		data.NewFloat("v", []float64{1, 2})))
	aggs := []AggSpec{{Fn: AggCount, As: "n"}, {Fn: AggAvg, Col: "v", As: "m"}}
	src := func() Operator {
		return &Filter{Child: NewScan(data.SinglePartition(tb), "", nil, 1),
			Pred: NewBinOp(OpEq, Col("g"), Str("absent"))}
	}
	wantTypes := map[string]data.Type{
		"g": data.String, "k": data.Int64, "n": data.Float64, "m": data.Float64}
	grouped := func() Operator {
		return &GroupAggregate{Child: src(), Keys: []string{"g", "k"}, Aggs: aggs}
	}
	// A HAVING over the zero-group result skips its empty batch and
	// returns nothing: Drain's typed fallback must still apply.
	having := func() Operator {
		return &Filter{Child: grouped(), Pred: NewBinOp(OpGt, Col("n"), Num(0))}
	}
	for name, mk := range map[string]func() Operator{"grouped": grouped, "having": having} {
		for _, dop := range []int{1, 2} { // dop 2 exercises the partial/merge path
			out, err := Drain(mustParallelize(t, mk(), dop, 1))
			if err != nil {
				t.Fatalf("%s dop=%d: %v", name, dop, err)
			}
			if out.NumRows() != 0 {
				t.Fatalf("%s dop=%d: %d groups over empty input", name, dop, out.NumRows())
			}
			for col, want := range wantTypes {
				c := out.Col(col)
				if c == nil {
					t.Fatalf("%s dop=%d: empty result lacks column %q:\n%s", name, dop, col, out)
				}
				if c.Type != want {
					t.Fatalf("%s dop=%d: %s type = %v, want %v", name, dop, col, c.Type, want)
				}
			}
		}
	}
}

// TestJoinEmptyBuildTyped pins the companion regression at the join
// breaker: a parallel hash join whose build side produces no batches must
// still emit a typed (empty) result covering both input schemas.
func TestJoinEmptyBuildTyped(t *testing.T) {
	left := data.MustNewTable("l",
		data.NewInt("l.id", []int64{1, 2, 3}),
		data.NewFloat("l.v", []float64{10, 20, 30}))
	right := data.MustNewTable("r",
		data.NewInt("r.id", []int64{4, 5}),
		data.NewString("r.tag", []string{"x", "y"}))
	buildSide := func() Operator {
		return &Filter{Child: NewScan(data.SinglePartition(right), "", nil, 2),
			Pred: NewBinOp(OpEq, Col("r.tag"), Str("absent"))}
	}
	join := &HashJoin{Left: NewScan(data.SinglePartition(left), "", nil, 2),
		Right: buildSide(), LeftKey: "l.id", RightKey: "r.id"}
	out, err := Drain(mustParallelize(t, join, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatalf("rows = %d over empty build side", out.NumRows())
	}
	for col, want := range map[string]data.Type{
		"l.id": data.Int64, "l.v": data.Float64,
		"r.id": data.Int64, "r.tag": data.String} {
		c := out.Col(col)
		if c == nil {
			t.Fatalf("empty join result lacks column %q:\n%s", col, out)
		}
		if c.Type != want {
			t.Fatalf("%s type = %v, want %v", col, c.Type, want)
		}
	}
}

// TestGroupAggregateDenseMatchesHash pins the dense code-indexed path
// against hash grouping of the same values as raw strings, including a
// dictionary switch mid-stream (two tables sharing no dictionary appended
// into one scan source).
func TestGroupAggregateDenseMatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mkTable := func(prefix string, rows int) *data.Table {
		g := make([]string, rows)
		v := make([]float64, rows)
		for i := range g {
			g[i] = fmt.Sprintf("%s%d", prefix, rng.Intn(40))
			v[i] = rng.NormFloat64()
		}
		return data.MustNewTable("t", data.NewString("g", g), data.NewFloat("v", v))
	}
	a, b := mkTable("a", 900), mkTable("b", 700)
	// Two partitions: encoded, with different dictionaries, the dense array
	// must reinitialize on the switch and the merge must group by value.
	source := func(enc func(*data.Table) *data.Table) *data.PartitionedTable {
		pt := data.SinglePartition(enc(a))
		pt.Parts = append(pt.Parts, data.SinglePartition(enc(b)).Parts...)
		return pt
	}
	raw := source(func(t *data.Table) *data.Table { return t })
	dict := source(data.DictEncodeTable)
	aggs := []AggSpec{{Fn: AggCount, As: "n"}, {Fn: AggSum, Col: "v", As: "s"}}
	mk := func(pt *data.PartitionedTable) Operator {
		return &GroupAggregate{Child: NewScan(pt, "", nil, 128), Keys: []string{"g"}, Aggs: aggs}
	}
	hash, err := Drain(mk(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{1, 2, 4} {
		dense, err := Drain(mustParallelize(t, mk(dict), dop, 128))
		if err != nil {
			t.Fatalf("dop=%d: %v", dop, err)
		}
		assertTablesEqual(t, hash, dense)
	}
}

// TestGroupAggregateErrors covers the operator's error paths: missing key
// column, and a missing aggregate column with and without keys.
func TestGroupAggregateErrors(t *testing.T) {
	pt := data.SinglePartition(data.MustNewTable("t",
		data.NewString("g", []string{"a"}), data.NewFloat("v", []float64{1})))
	if _, err := Drain(&GroupAggregate{Child: NewScan(pt, "", nil, 8),
		Keys: []string{"nope"}, Aggs: []AggSpec{{Fn: AggCount, As: "n"}}}); err == nil {
		t.Fatal("expected error for missing key column")
	}
	for _, keys := range [][]string{{"g"}, nil} {
		if _, err := Drain(&GroupAggregate{Child: NewScan(pt, "", nil, 8),
			Keys: keys, Aggs: []AggSpec{{Fn: AggSum, Col: "nope", As: "s"}}}); err == nil {
			t.Fatalf("keys=%v: expected error for missing aggregate column", keys)
		}
	}
}

// TestAggregateMinMaxFoldIdentity pins the MIN/MAX fold identities at ±Inf:
// values at or beyond ±1e308 — including ±Inf, which CSV input parses —
// must come back from MIN and MAX as they are, not as a finite stand-in
// identity, grouped and global, with the partial step inline (DOP 1) and in
// exchange workers (DOP 2).
func TestAggregateMinMaxFoldIdentity(t *testing.T) {
	inf := math.Inf(1)
	tb := data.MustNewTable("t",
		data.NewString("g", []string{"big", "big", "big", "inf", "inf", "inf", "neg", "neg", "neg"}),
		data.NewFloat("x", []float64{1.5e308, 1.7e308, 1.6e308, inf, inf, inf, -inf, -inf, -inf}))
	aggs := []AggSpec{{Fn: AggMin, Col: "x", As: "lo"}, {Fn: AggMax, Col: "x", As: "hi"}}
	want := map[string][2]float64{"big": {1.5e308, 1.7e308}, "inf": {inf, inf}, "neg": {-inf, -inf}}
	scan := func() Operator { return NewScan(data.SinglePartition(tb), "", nil, 2) }
	check := func(label string, out *data.Table, row int, w [2]float64) {
		t.Helper()
		if lo, hi := out.Col("lo").F64[row], out.Col("hi").F64[row]; lo != w[0] || hi != w[1] {
			t.Fatalf("%s: MIN, MAX = %v, %v, want %v, %v", label, lo, hi, w[0], w[1])
		}
	}
	for _, dop := range []int{1, 2} {
		grouped, err := Drain(mustParallelize(t, &GroupAggregate{Child: scan(), Keys: []string{"g"}, Aggs: aggs}, dop, 2))
		if err != nil {
			t.Fatal(err)
		}
		if grouped.NumRows() != len(want) {
			t.Fatalf("dop=%d: %d groups, want %d", dop, grouped.NumRows(), len(want))
		}
		for r := 0; r < grouped.NumRows(); r++ {
			g := grouped.Col("g").AsString(r)
			check(fmt.Sprintf("dop=%d grouped %s", dop, g), grouped, r, want[g])
		}
		for g, w := range want {
			global, err := Drain(mustParallelize(t, &GroupAggregate{
				Child: &Filter{Child: scan(), Pred: NewBinOp(OpEq, Col("g"), Str(g))}, Aggs: aggs}, dop, 2))
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("dop=%d global %s", dop, g), global, 0, w)
		}
	}
}
