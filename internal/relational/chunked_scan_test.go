package relational

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"raven/internal/data"
)

// Chunk-native scan differential: scanning a chunk-backed copy of a
// partitioned table must produce results byte-identical — float bits,
// row order, dictionary representation — to scanning the in-memory
// original, serial and at every DOP. That holds because chunked batches
// are cut at BatchSize boundaries (never chunk boundaries), so every
// downstream fold sees the same batch shapes.

// chunkScanChunkRows is deliberately misaligned with the 128-row batches
// so most batches span a chunk boundary.
const chunkScanChunkRows = 97

// chunkScanFixture mirrors breakerJoinFixture, optionally dictionary-
// encoding the string columns, and returns the probe and dimension
// tables partitioned exactly as the breaker tests expect. For the zone-map
// shapes the probe table is sorted on id, clustered on tag (runs of 500
// rows) and unsorted on v and k.
func chunkScanFixture(t *testing.T, n, dimRows int, dict bool) (*data.PartitionedTable, *data.PartitionedTable) {
	t.Helper()
	ids := make([]int64, n)
	keys := make([]int64, n)
	vs := make([]float64, n)
	grp := make([]string, n)
	tag := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		keys[i] = int64(i % (dimRows * 2))
		vs[i] = float64(i%89) * 0.1 // binary-inexact: catches re-rounding
		grp[i] = []string{"a", "b", "c"}[i*3/n]
		tag[i] = fmt.Sprintf("t%02d", i/500)
	}
	fact := data.MustNewTable("fact",
		data.NewInt("id", ids), data.NewInt("k", keys),
		data.NewFloat("v", vs), data.NewString("grp", grp), data.NewString("tag", tag))
	if dict {
		fact = data.DictEncodeTable(fact)
	}
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

// chunkScanShapes builds every plan shape under test over the given
// (probe, dim) pair — leaf scan, streaming filter/project, and all three
// pipeline breakers.
func chunkScanShapes(pf, dim *data.PartitionedTable) map[string]func() Operator {
	return map[string]func() Operator{
		"scan": func() Operator { return NewScan(pf, "", nil, 128) },
		"filter-project": func() Operator {
			scan := NewScan(pf, "", []string{"id", "v", "grp"}, 128)
			filter := &Filter{Child: scan, Pred: NewBinOp(OpLt, Col("v"), Num(6))}
			return &Project{Child: filter, Exprs: []NamedExpr{
				{Name: "id", E: Col("id")},
				{Name: "v2", E: NewBinOp(OpMul, Col("v"), Num(2))},
				{Name: "grp", E: Col("grp")},
			}}
		},
		"join": func() Operator {
			return &HashJoin{
				Left:    NewScan(pf, "", nil, 128),
				Right:   NewScan(dim, "", nil, 128),
				LeftKey: "k", RightKey: "dk",
			}
		},
		"group": func() Operator {
			return &GroupAggregate{
				Child: NewScan(pf, "", nil, 128),
				Keys:  []string{"grp", "k"},
				Aggs: []AggSpec{
					{Fn: AggCount, As: "n"},
					{Fn: AggSum, Col: "v", As: "sv"},
					{Fn: AggAvg, Col: "v", As: "av"},
				},
			}
		},
		"sort": func() Operator {
			return &Sort{
				Child: NewScan(pf, "", nil, 128),
				Keys:  []SortKey{{Col: "v", Desc: true}, {Col: "grp"}, {Col: "id"}},
				Limit: -1,
			}
		},
	}
}

// assertTablesBits is the bitwise-strict version of assertTablesEqual:
// float columns compare by bit pattern and the dictionary-vs-raw
// representation must match, so a chunked scan cannot silently widen or
// decode columns differently from the in-memory scan.
func assertTablesBits(t *testing.T, want, got *data.Table) {
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
		if gc.Type != wc.Type || (want.NumRows() > 0 && gc.IsDict() != wc.IsDict()) {
			t.Fatalf("column %q: type/repr %v/dict=%v, want %v/dict=%v",
				wc.Name, gc.Type, gc.IsDict(), wc.Type, wc.IsDict())
		}
		for i := 0; i < wc.Len(); i++ {
			if wc.Type == data.Float64 {
				if math.Float64bits(wc.F64[i]) != math.Float64bits(gc.F64[i]) {
					t.Fatalf("column %q row %d: float bits %x, want %x",
						wc.Name, i, math.Float64bits(gc.F64[i]), math.Float64bits(wc.F64[i]))
				}
				continue
			}
			if wc.AsString(i) != gc.AsString(i) {
				t.Fatalf("column %q row %d: %s, want %s",
					wc.Name, i, gc.AsString(i), wc.AsString(i))
			}
		}
	}
}

func chunkScanDOPs() []int {
	dops := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		dops = append(dops, n)
	}
	return dops
}

func TestChunkedScanDifferential(t *testing.T) {
	for _, dict := range []bool{false, true} {
		name := "raw"
		if dict {
			name = "dict"
		}
		t.Run(name, func(t *testing.T) {
			pf, dim := chunkScanFixture(t, 6000, 500, dict)
			cpf, err := pf.ChunkEncode(chunkScanChunkRows)
			if err != nil {
				t.Fatal(err)
			}
			cdim, err := dim.ChunkEncode(chunkScanChunkRows)
			if err != nil {
				t.Fatal(err)
			}
			mem := chunkScanShapes(pf, dim)
			chunked := chunkScanShapes(cpf, cdim)
			for shape, mkMem := range mem {
				mkChunk := chunked[shape]
				t.Run(shape, func(t *testing.T) {
					want, err := Drain(mkMem())
					if err != nil {
						t.Fatal(err)
					}
					t.Run("serial", func(t *testing.T) {
						got, err := Drain(mkChunk())
						if err != nil {
							t.Fatal(err)
						}
						assertTablesBits(t, want, got)
					})
					for _, dop := range chunkScanDOPs() {
						t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
							got, err := Drain(mustParallelize(t, mkChunk(), dop, 128))
							if err != nil {
								t.Fatal(err)
							}
							assertTablesBits(t, want, got)
						})
					}
				})
			}
		})
	}
}

// TestChunkedScanSpillDifferential drives the pipeline breakers from
// chunk-native scans under a budget small enough that every breaker
// spills: chunk decoding and out-of-core execution composed together
// must still be byte-identical to the unbudgeted in-memory run, and no
// spill file may survive Cleanup.
func TestChunkedScanSpillDifferential(t *testing.T) {
	pf, dim := chunkScanFixture(t, 6000, 500, false)
	cpf, err := pf.ChunkEncode(chunkScanChunkRows)
	if err != nil {
		t.Fatal(err)
	}
	cdim, err := dim.ChunkEncode(chunkScanChunkRows)
	if err != nil {
		t.Fatal(err)
	}
	mem := chunkScanShapes(pf, dim)
	chunked := chunkScanShapes(cpf, cdim)
	for _, shape := range []string{"join", "group", "sort"} {
		mkMem, mkChunk := mem[shape], chunked[shape]
		t.Run(shape, func(t *testing.T) {
			want, err := Drain(mkMem())
			if err != nil {
				t.Fatal(err)
			}
			run := func(t *testing.T, root Operator) {
				dir := t.TempDir()
				mb := queryBudget(spillBudget, dir)
				got, err := DrainEnv(&Env{Budget: mb}, root)
				if err != nil {
					t.Fatal(err)
				}
				if mb.Spills() == 0 || mb.SpilledBytes() == 0 {
					t.Fatalf("budget %d did not spill (spills=%d bytes=%d)",
						spillBudget, mb.Spills(), mb.SpilledBytes())
				}
				assertTablesBits(t, want, got)
				mb.Cleanup()
				assertNoSpillFiles(t, dir)
			}
			t.Run("serial", func(t *testing.T) { run(t, mkChunk()) })
			for _, dop := range chunkScanDOPs() {
				t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
					run(t, mustParallelize(t, mkChunk(), dop, 128))
				})
			}
		})
	}
}

// zoneShape is one zone-map shape: the predicates the optimizer would copy
// onto the scan, the Filter they were copied from, and how many of the
// table's chunks they must exclude.
type zoneShape struct {
	name  string
	prune []ZonePredicate
	pred  Expr
	skips string // "none", "some" or "all" chunks
}

func numZone(col string, op BinOpKind, v float64) ZonePredicate {
	return ZonePredicate{Col: col, Op: op, Val: v}
}

func zoneShapes(chunkRows int) []zoneShape {
	between := func(lo, hi float64) ([]ZonePredicate, Expr) {
		return []ZonePredicate{numZone("id", OpGe, lo), numZone("id", OpLt, hi)},
			NewBinOp(OpAnd, NewBinOp(OpGe, Col("id"), Num(lo)), NewBinOp(OpLt, Col("id"), Num(hi)))
	}
	// Crosses the partition boundary at id 2000 and several chunk boundaries.
	rangePrune, rangePred := between(1900, 2100)
	// Five surviving rows, two before and three after the first chunk boundary.
	edge := float64(chunkRows)
	edgePrune, edgePred := between(edge-2, edge+3)
	return []zoneShape{
		{"eq-sorted-key", []ZonePredicate{numZone("id", OpEq, 2500)},
			NewBinOp(OpEq, Col("id"), Num(2500)), "some"},
		{"range-sorted-key", rangePrune, rangePred, "some"},
		{"eq-clustered-string", []ZonePredicate{{Col: "tag", Op: OpEq, IsStr: true, StrV: "t07"}},
			NewBinOp(OpEq, Col("tag"), Str("t07")), "some"},
		{"unsorted-excludes-nothing", []ZonePredicate{numZone("v", OpLt, 6)},
			NewBinOp(OpLt, Col("v"), Num(6)), "none"},
		{"excludes-everything", []ZonePredicate{numZone("id", OpEq, -5)},
			NewBinOp(OpEq, Col("id"), Num(-5)), "all"},
		{"straddles-chunk-boundary", edgePrune, edgePred, "some"},
	}
}

func numChunks(pt *data.PartitionedTable) int64 {
	var n int64
	for _, p := range pt.Parts {
		n += int64(p.Chunked.NumChunks())
	}
	return n
}

// drainScanStats drains the plan and returns its result together with the
// statistics of the scan at its leaf (the exchange's template scan when
// the plan was parallelized).
func drainScanStats(t *testing.T, root Operator) (*data.Table, OpStats) {
	t.Helper()
	got, err := Drain(root)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scanOf(root)
	if err != nil {
		t.Fatal(err)
	}
	return got, *sc.Stats()
}

// TestChunkedScanZoneMaps: a chunk-backed scan carrying zone predicates —
// so it leaves excluded chunks encoded — under the Filter they came from
// must be byte-identical to the in-memory scan without any, serial and at
// every DOP, with chunks misaligned (97) and aligned (256) to the 128-row
// batches.
func TestChunkedScanZoneMaps(t *testing.T) {
	plan := func(pt *data.PartitionedTable, z zoneShape, prune bool) Operator {
		scan := NewScan(pt, "", []string{"v", "id", "tag"}, 128)
		if prune {
			scan.Prune = z.prune
		}
		return &Filter{Child: scan, Pred: z.pred}
	}
	for _, dict := range []bool{false, true} {
		pf, _ := chunkScanFixture(t, 6000, 500, dict)
		for _, chunkRows := range []int{chunkScanChunkRows, 256} {
			cpf, err := pf.ChunkEncode(chunkRows)
			if err != nil {
				t.Fatal(err)
			}
			total := numChunks(cpf)
			for _, z := range zoneShapes(chunkRows) {
				t.Run(fmt.Sprintf("dict=%v/chunk=%d/%s", dict, chunkRows, z.name), func(t *testing.T) {
					want, err := Drain(plan(pf, z, false))
					if err != nil {
						t.Fatal(err)
					}
					if (want.NumRows() == 0) != (z.skips == "all") {
						t.Fatalf("reference has %d rows", want.NumRows())
					}
					for _, dop := range append([]int{0}, chunkScanDOPs()...) {
						root := plan(cpf, z, true)
						if dop > 0 {
							root = mustParallelize(t, root, dop, 128)
						}
						got, st := drainScanStats(t, root)
						assertTablesBits(t, want, got)
						switch {
						case z.skips == "none" && st.ChunksSkipped != 0,
							z.skips == "some" && (st.ChunksSkipped == 0 || st.ChunksDecoded == 0 || st.Rows >= 6000),
							z.skips == "all" && (st.ChunksSkipped != total || st.ChunksDecoded != 0 || st.Rows != 0):
							t.Fatalf("dop=%d: %d of %d chunks skipped, %d decoded, %d rows scanned; want %s skipped",
								dop, st.ChunksSkipped, total, st.ChunksDecoded, st.Rows, z.skips)
						}
					}
				})
			}
		}
	}
}

// TestChunkedScanDecodesEachChunkOnce pins the decode work: a full scan
// decodes every chunk exactly once when chunks align with batches and at
// most twice when they do not (the chunk a batch straddles into is decoded
// by both tasks), at every DOP; a point predicate on the sorted key
// touches at most two chunks.
func TestChunkedScanDecodesEachChunkOnce(t *testing.T) {
	pf, _ := chunkScanFixture(t, 6000, 500, false)
	for _, chunkRows := range []int{chunkScanChunkRows, 256} {
		cpf, err := pf.ChunkEncode(chunkRows)
		if err != nil {
			t.Fatal(err)
		}
		total := numChunks(cpf)
		for _, dop := range append([]int{0}, chunkScanDOPs()...) {
			t.Run(fmt.Sprintf("chunk=%d/dop=%d", chunkRows, dop), func(t *testing.T) {
				par := func(root Operator) Operator {
					if dop > 0 {
						return mustParallelize(t, root, dop, 128)
					}
					return root
				}
				_, st := drainScanStats(t, par(NewScan(cpf, "", nil, 128)))
				most := total
				if dop > 0 && chunkRows%128 != 0 {
					most = 2 * total
				}
				if st.ChunksDecoded < total || st.ChunksDecoded > most || st.Rows != 6000 {
					t.Fatalf("full scan: %d decodes of %d chunks (want at most %d), %d rows",
						st.ChunksDecoded, total, most, st.Rows)
				}
				point := NewScan(cpf, "", nil, 128)
				point.Prune = []ZonePredicate{numZone("id", OpEq, 2500)}
				got, st := drainScanStats(t, par(&Filter{Child: point, Pred: NewBinOp(OpEq, Col("id"), Num(2500))}))
				if got.NumRows() != 1 || st.ChunksDecoded > 2 || st.Rows > int64(2*chunkRows) {
					t.Fatalf("point lookup: %d rows, %d decodes, %d rows scanned",
						got.NumRows(), st.ChunksDecoded, st.Rows)
				}
			})
		}
	}
}
