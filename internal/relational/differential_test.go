package relational

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"raven/internal/data"
)

// Differential harness: randomized tables (varying row counts, skewed
// join keys, NULL-free edge-value columns) are run through every
// parallelizable plan shape — scan chains, single and chained hash
// joins (integer- and string-keyed), string equality/IN filters, global
// aggregates, grouped aggregates (single/multi key, dense and
// hash-forced grouping, grouped over joins), and ordered output (Sort
// asc/desc over string/float keys, HAVING above groups, LIMITs smaller
// than / equal to / larger than the input, the ranked top-k-groups
// shape) — under BOTH string representations (raw and
// dictionary-encoded), and every execution must be byte-identical to
// the raw serial baseline at DOP 1, 2, 4 and NumCPU — for the ordered
// shapes that includes the row order itself. The engine-level twin
// (internal/engine/differential_test.go) drives the same property
// through SQL planning, optimization and ML predict plans over the
// datagen datasets. TestBreakersMatchNaiveReferences anchors the breakers
// to naive references outside the engine as well.

// edgeValues exercises aggregation and join arithmetic at the extremes
// the fold must keep bit-stable: zeros, huge and tiny magnitudes, exact
// negatives.
var edgeValues = []float64{0, 1, -1, 1e15, -1e15, 1e-12, 97.25, -97.25}

// diffFixture is one randomized fact table (partitioned) plus dimension
// tables sharing a skewed key domain: dim/dim2 join on integer keys,
// dim3 on a string key.
type diffFixture struct {
	fact *data.PartitionedTable
	dim  *data.PartitionedTable
	dim2 *data.PartitionedTable
	dim3 *data.PartitionedTable
}

// randTables generates the raw tables with rng-driven row counts and a
// skewed key distribution: most probe rows hit a handful of hot keys, so
// some morsels explode while others match nothing.
func randTables(t *testing.T, rng *rand.Rand) (fact, dim, dim2, dim3 *data.Table) {
	t.Helper()
	rows := 1500 + rng.Intn(4500)
	nKeys := 40 + rng.Intn(160)
	ids := make([]int64, rows)
	keys := make([]int64, rows)
	k2 := make([]int64, rows)
	sk := make([]string, rows)
	vs := make([]float64, rows)
	edge := make([]float64, rows)
	grp := make([]string, rows)
	hot := []int64{int64(rng.Intn(nKeys)), int64(rng.Intn(nKeys)), int64(rng.Intn(nKeys))}
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		if rng.Float64() < 0.7 {
			keys[i] = hot[rng.Intn(len(hot))]
		} else {
			keys[i] = int64(rng.Intn(nKeys * 2)) // some keys miss the dim entirely
		}
		k2[i] = int64(rng.Intn(nKeys))
		sk[i] = fmt.Sprintf("s%d", keys[i]) // string twin of the skewed key
		vs[i] = rng.NormFloat64() * 100
		edge[i] = edgeValues[rng.Intn(len(edgeValues))]
		grp[i] = fmt.Sprintf("g%d", rng.Intn(4))
	}
	fact = data.MustNewTable("fact",
		data.NewInt("id", ids), data.NewInt("k", keys), data.NewInt("k2", k2),
		data.NewString("sk", sk),
		data.NewFloat("v", vs), data.NewFloat("edge", edge), data.NewString("grp", grp))
	mkDim := func(name, key string, strKey bool) *data.Table {
		dk := make([]int64, nKeys)
		dks := make([]string, nKeys)
		dv := make([]float64, nKeys)
		ds := make([]string, nKeys)
		for i := 0; i < nKeys; i++ {
			dk[i] = int64(i)
			dks[i] = fmt.Sprintf("s%d", i)
			dv[i] = edgeValues[rng.Intn(len(edgeValues))] + float64(i)
			ds[i] = fmt.Sprintf("d%d", i%7)
		}
		kc := data.NewInt(key, dk)
		if strKey {
			kc = data.NewString(key, dks)
		}
		return data.MustNewTable(name,
			kc, data.NewFloat(name+"_v", dv), data.NewString(name+"_s", ds))
	}
	return fact, mkDim("dim", "dk", false), mkDim("dim2", "dk2", false), mkDim("dim3", "dk3", true)
}

// fixtureFrom partitions the tables into a fixture, optionally
// dictionary-encoding every string column first (partitions then share
// the per-column dictionaries, like tables encoded at load time do).
func fixtureFrom(t *testing.T, fact, dim, dim2, dim3 *data.Table, encode bool) *diffFixture {
	t.Helper()
	if encode {
		fact = data.DictEncodeTable(fact)
		dim = data.DictEncodeTable(dim)
		dim2 = data.DictEncodeTable(dim2)
		dim3 = data.DictEncodeTable(dim3)
	}
	pf, err := data.PartitionBy(fact, "grp")
	if err != nil {
		t.Fatal(err)
	}
	return &diffFixture{
		fact: pf,
		dim:  data.SinglePartition(dim),
		dim2: data.SinglePartition(dim2),
		dim3: data.SinglePartition(dim3),
	}
}

// diffShapes enumerates the plan shapes under test; each entry builds a
// fresh operator tree (Parallelize mutates plans, so every run needs its
// own).
func diffShapes(f *diffFixture, batch int) map[string]func() Operator {
	aggs := []AggSpec{
		{Fn: AggCount, As: "n"},
		{Fn: AggSum, Col: "v", As: "sum_v"},
		{Fn: AggAvg, Col: "edge", As: "avg_edge"},
		{Fn: AggMin, Col: "v", As: "min_v"},
		{Fn: AggMax, Col: "edge", As: "max_edge"},
	}
	scanChain := func() Operator {
		scan := NewScan(f.fact, "", nil, batch)
		filter := &Filter{Child: scan, Pred: NewBinOp(OpGt, Col("v"), Num(-40))}
		return &Project{Child: filter, Exprs: []NamedExpr{
			{Name: "id", E: Col("id")},
			{Name: "k", E: Col("k")},
			{Name: "k2", E: Col("k2")},
			{Name: "sk", E: Col("sk")},
			{Name: "grp", E: Col("grp")},
			{Name: "v", E: Col("v")},
			{Name: "edge", E: NewBinOp(OpMul, Col("edge"), Num(2))},
		}}
	}
	join := func() Operator {
		return &HashJoin{
			Left:    scanChain(),
			Right:   NewScan(f.dim, "", nil, batch),
			LeftKey: "k", RightKey: "dk",
		}
	}
	joinJoin := func() Operator {
		return &HashJoin{
			Left:    join(),
			Right:   NewScan(f.dim2, "", nil, batch),
			LeftKey: "k2", RightKey: "dk2",
		}
	}
	joinStr := func() Operator {
		return &HashJoin{
			Left:    scanChain(),
			Right:   NewScan(f.dim3, "", nil, batch),
			LeftKey: "sk", RightKey: "dk3",
		}
	}
	return map[string]func() Operator{
		"scan-chain": scanChain,
		"join":       join,
		"join-join":  joinJoin,
		"join-str":   joinStr,
		"filter-above-join": func() Operator {
			return &Filter{Child: join(), Pred: NewBinOp(OpLt, Col("dim_v"), Num(60))}
		},
		// String equality over the (possibly dict-coded) group column; the
		// literal appears on both sides to cover the flipped kernel.
		"filter-str-eq": func() Operator {
			return &Filter{Child: scanChain(),
				Pred: NewBinOp(OpEq, Col("grp"), Str("g1"))}
		},
		"filter-str-lit-first": func() Operator {
			return &Filter{Child: joinStr(),
				Pred: NewBinOp(OpLe, Str("d3"), Col("dim3_s")),
			}
		},
		"filter-in": func() Operator {
			return &Filter{Child: scanChain(), Pred: In(Col("grp"), "g0", "g2", "nope")}
		},
		// All-true and all-false masks: the zero-copy pass-through and the
		// skip-without-allocating path must stay byte-identical too.
		"filter-all-true": func() Operator {
			return &Filter{Child: scanChain(), Pred: NewBinOp(OpNe, Col("grp"), Str("absent"))}
		},
		"filter-all-false": func() Operator {
			return &Filter{Child: scanChain(), Pred: In(Col("grp"), "missing")}
		},
		"agg-over-scan": func() Operator {
			return &GroupAggregate{Child: scanChain(), Aggs: aggs}
		},
		"agg-over-join": func() Operator {
			return &GroupAggregate{Child: joinJoin(), Aggs: aggs}
		},
		"agg-over-str-join": func() Operator {
			return &GroupAggregate{Child: joinStr(), Aggs: aggs}
		},
		// Grouped aggregation: string key (dense dict path when encoded,
		// hash over raw strings), integer key, multi-key, and groups over
		// joins — all must be byte-identical across representation × DOP,
		// including output row order (first occurrence in serial batch
		// order).
		"group-str-key": func() Operator {
			return &GroupAggregate{Child: scanChain(), Keys: []string{"grp"}, Aggs: aggs}
		},
		"group-int-key": func() Operator {
			return &GroupAggregate{Child: scanChain(), Keys: []string{"k2"}, Aggs: aggs}
		},
		"group-multi-key": func() Operator {
			return &GroupAggregate{Child: scanChain(),
				Keys: []string{"grp", "k2"}, Aggs: aggs}
		},
		"group-over-join": func() Operator {
			return &GroupAggregate{Child: joinJoin(),
				Keys: []string{"dim_s"}, Aggs: aggs}
		},
		"group-over-str-join": func() Operator {
			return &GroupAggregate{Child: joinStr(),
				Keys: []string{"grp", "dim3_s"}, Aggs: aggs}
		},
		// Ordered output: row order is now semantically asserted — the
		// parallel PartialSort runs k-way merged at the Sort must
		// reproduce the serial stable sort byte-for-byte, for ascending
		// and descending keys over both string representations, with
		// LIMITs smaller than, equal to and larger than the input.
		"sort-str-asc": func() Operator {
			return &Sort{Child: scanChain(),
				Keys: []SortKey{{Col: "sk"}, {Col: "id", Desc: true}}, Limit: -1}
		},
		"sort-str-desc-limit": func() Operator {
			return &Sort{Child: scanChain(),
				Keys: []SortKey{{Col: "sk", Desc: true}, {Col: "v"}}, Limit: 50}
		},
		"sort-float-desc": func() Operator {
			return &Sort{Child: joinStr(),
				Keys: []SortKey{{Col: "dim3_v", Desc: true}, {Col: "id"}}, Limit: 25}
		},
		"limit-only": func() Operator {
			return &Limit{Child: scanChain(), N: 777}
		},
		"having-avg-group": func() Operator {
			return &Filter{
				Child: &GroupAggregate{Child: scanChain(), Keys: []string{"grp"}, Aggs: aggs},
				Pred:  NewBinOp(OpGt, Col("avg_edge"), Num(-1e14)),
			}
		},
		// The canonical ranking shape: groups whose aggregate passes a
		// threshold, top-k by that aggregate. grp has 4 groups, so the
		// three limits are smaller than, equal to and larger than the
		// group count.
		"topk-groups-small": func() Operator {
			return rankShape(scanChain(), aggs, 2)
		},
		"topk-groups-equal": func() Operator {
			return rankShape(scanChain(), aggs, 4)
		},
		"topk-groups-larger": func() Operator {
			return rankShape(scanChain(), aggs, 100)
		},
		"sort-group-key-asc": func() Operator {
			return &Sort{
				Child: &GroupAggregate{Child: scanChain(),
					Keys: []string{"grp", "k2"}, Aggs: aggs},
				Keys: []SortKey{{Col: "grp"}, {Col: "sum_v", Desc: true}}, Limit: -1,
			}
		},
	}
}

// rankShape builds Sort(Having(GroupAggregate)) — "groups whose average
// exceeds a threshold, top-k by that average", the Hydro-style canonical
// ML-query shape.
func rankShape(child Operator, aggs []AggSpec, limit int) Operator {
	return &Sort{
		Child: &Filter{
			Child: &GroupAggregate{Child: child, Keys: []string{"grp"}, Aggs: aggs},
			Pred:  NewBinOp(OpGt, Col("n"), Num(0)),
		},
		Keys:  []SortKey{{Col: "avg_edge", Desc: true}, {Col: "grp"}},
		Limit: limit,
	}
}

func TestDifferentialSerialVsParallel(t *testing.T) {
	dops := []int{2, 4}
	if n := runtime.NumCPU(); n > 4 {
		dops = append(dops, n)
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fact, dim, dim2, dim3 := randTables(t, rng)
		raw := fixtureFrom(t, fact, dim, dim2, dim3, false)
		enc := fixtureFrom(t, fact, dim, dim2, dim3, true)
		batch := []int{64, 256, 1024}[rng.Intn(3)]
		rawShapes := diffShapes(raw, batch)
		encShapes := diffShapes(enc, batch)
		for name, mk := range rawShapes {
			// Raw serial execution is the baseline every other
			// (representation × DOP) combination must reproduce exactly.
			serial, err := Drain(mk())
			if err != nil {
				t.Fatalf("seed=%d %s serial: %v", seed, name, err)
			}
			for repr, mkr := range map[string]func() Operator{"raw": mk, "dict": encShapes[name]} {
				encSerial, err := Drain(mkr())
				if err != nil {
					t.Fatalf("seed=%d %s %s serial: %v", seed, name, repr, err)
				}
				// assertTablesEqual compares via AsString, which
				// round-trips float64 exactly — a byte-identity check.
				assertTablesEqual(t, serial, encSerial)
				for _, dop := range dops {
					root := mustParallelize(t, mkr(), dop, batch)
					got, err := Drain(root)
					if err != nil {
						t.Fatalf("seed=%d %s %s dop=%d: %v", seed, name, repr, dop, err)
					}
					assertTablesEqual(t, serial, got)
				}
			}
		}
	}
}

// TestDifferentialReuse re-runs one parallel plan twice: exchanges,
// shared join builds and partial aggregates must all survive re-Open.
func TestDifferentialReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fact, dim, dim2, dim3 := randTables(t, rng)
	f := fixtureFrom(t, fact, dim, dim2, dim3, true)
	shapes := diffShapes(f, 256)
	for _, name := range []string{"join-join", "join-str", "agg-over-join", "group-over-join"} {
		root := mustParallelize(t, shapes[name](), 4, 256)
		first, err := Drain(root)
		if err != nil {
			t.Fatalf("%s first: %v", name, err)
		}
		second, err := Drain(root)
		if err != nil {
			t.Fatalf("%s second: %v", name, err)
		}
		assertTablesEqual(t, first, second)
	}
}

// TestBreakersMatchNaiveReferences anchors every pipeline breaker to code
// outside the engine: on randomized fixtures under both string
// representations, the hash join (integer, string and chained keys), the
// global and the grouped aggregate and the sort run with their partial step
// inline (DOP 1) and in exchange workers (DOP 2, 4), and each result must
// equal its naive reference — nested-loop join, one-pass aggregates,
// stable sort — exactly, except SUM/AVG, whose batched addition tree may
// differ from the reference's row-order pass in the last bits.
func TestBreakersMatchNaiveReferences(t *testing.T) {
	aggs := []AggSpec{
		{Fn: AggCount, As: "n"},
		{Fn: AggSum, Col: "v", As: "sum_v"},
		{Fn: AggAvg, Col: "v", As: "avg_v"},
		{Fn: AggMin, Col: "v", As: "min_v"},
		{Fn: AggMax, Col: "edge", As: "max_edge"},
	}
	groupKeys := []string{"grp", "dim_s"}
	sortKeys := []SortKey{{Col: "dim3_v", Desc: true}, {Col: "sk"}, {Col: "id"}}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fact, dim, dim2, dim3 := randTables(t, rng)
		batch := []int{64, 256, 1024}[rng.Intn(3)]
		for _, encode := range []bool{false, true} {
			f := fixtureFrom(t, fact, dim, dim2, dim3, encode)
			shapes := diffShapes(f, batch)
			drain := func(op Operator) *data.Table {
				out, err := Drain(op)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			table := func(pt *data.PartitionedTable) *data.Table { return drain(NewScan(pt, "", nil, batch)) }
			probe := drain(shapes["scan-chain"]())
			joined := refJoin(probe, table(f.dim), "k", "dk")
			joinedTwice := refJoin(joined, table(f.dim2), "k2", "dk2")
			joinedStr := refJoin(probe, table(f.dim3), "sk", "dk3")
			for _, dop := range []int{1, 2, 4} {
				label := fmt.Sprintf("seed=%d encode=%v dop=%d", seed, encode, dop)
				run := func(op Operator) *data.Table { return drain(mustParallelize(t, op, dop, batch)) }
				for name, want := range map[string]*data.Table{
					"join": joined, "join-join": joinedTwice, "join-str": joinedStr,
				} {
					if want.NumRows() == 0 {
						t.Fatalf("%s %s: reference join is empty; the fixture no longer exercises it", label, name)
					}
					assertTablesEqual(t, want, run(shapes[name]()))
				}
				global := run(&GroupAggregate{Child: shapes["join-join"](), Aggs: aggs})
				assertMatchesReference(t, label+" global", global, nil, aggs,
					[]*refGroup{refAggregate(joinedTwice, aggs)}, false)
				none := run(&GroupAggregate{Child: shapes["filter-all-false"](), Aggs: aggs})
				assertMatchesReference(t, label+" global-empty", none, nil, aggs,
					[]*refGroup{refAggregate(probe.Slice(0, 0), aggs)}, true)
				grouped := run(&GroupAggregate{Child: shapes["join-join"](), Keys: groupKeys, Aggs: aggs})
				assertMatchesReference(t, label+" grouped", grouped, groupKeys, aggs,
					refGroupAggregate(joinedTwice, groupKeys, aggs), false)
				for _, limit := range []int{-1, 0, 30} {
					want := refSort(t, NewScan(data.SinglePartition(joinedStr), "", nil, joinedStr.NumRows()+1), sortKeys, limit)
					got := run(&Sort{Child: shapes["join-str"](), Keys: sortKeys, Limit: limit})
					if want.NumRows() == 0 && got.NumRows() == 0 {
						continue
					}
					assertTablesEqual(t, want, got)
				}
			}
		}
	}
}
