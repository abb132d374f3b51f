package relational

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"raven/internal/data"
)

// Filter/project micro-benches with allocation tracking: the zero-copy
// all-true filter path, selective filters over numeric and string
// (raw vs dict) predicates, IN membership, and a literal-arithmetic
// projection. allocs/op is the headline number — the dictionary and
// scalar-kernel work exists to drive it toward zero on these shapes.

func benchTable(rows int, encode bool) *data.PartitionedTable {
	rng := rand.New(rand.NewSource(3))
	vs := make([]float64, rows)
	ks := make([]int64, rows)
	grp := make([]string, rows)
	for i := 0; i < rows; i++ {
		vs[i] = rng.NormFloat64() * 50
		ks[i] = int64(i % 97)
		grp[i] = fmt.Sprintf("g%d", i%16)
	}
	tb := data.MustNewTable("t",
		data.NewInt("k", ks), data.NewFloat("v", vs), data.NewString("grp", grp))
	if encode {
		tb = data.DictEncodeTable(tb)
	}
	return data.SinglePartition(tb)
}

func benchDrain(b *testing.B, mk func() Operator, rows int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Drain(mk())
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkFilterAllTrue(b *testing.B) {
	const rows = 100000
	pt := benchTable(rows, true)
	benchDrain(b, func() Operator {
		return &Filter{
			Child: NewScan(pt, "", nil, 8192),
			Pred:  NewBinOp(OpGt, Col("v"), Num(-1e18)),
		}
	}, rows)
}

func BenchmarkFilterSelective(b *testing.B) {
	const rows = 100000
	pt := benchTable(rows, true)
	benchDrain(b, func() Operator {
		return &Filter{
			Child: NewScan(pt, "", nil, 8192),
			Pred:  NewBinOp(OpGt, Col("v"), Num(25)),
		}
	}, rows)
}

func BenchmarkFilterStringEq(b *testing.B) {
	const rows = 100000
	for _, enc := range []bool{false, true} {
		name := "raw"
		if enc {
			name = "dict"
		}
		pt := benchTable(rows, enc)
		b.Run("encoding="+name, func(b *testing.B) {
			benchDrain(b, func() Operator {
				return &Filter{
					Child: NewScan(pt, "", nil, 8192),
					Pred:  NewBinOp(OpEq, Col("grp"), Str("g7")),
				}
			}, rows)
		})
	}
}

func BenchmarkFilterIn(b *testing.B) {
	const rows = 100000
	for _, enc := range []bool{false, true} {
		name := "raw"
		if enc {
			name = "dict"
		}
		pt := benchTable(rows, enc)
		b.Run("encoding="+name, func(b *testing.B) {
			benchDrain(b, func() Operator {
				return &Filter{
					Child: NewScan(pt, "", nil, 8192),
					Pred:  In(Col("grp"), "g1", "g4", "g11"),
				}
			}, rows)
		})
	}
}

// BenchmarkExternalSortSpill prices out-of-core sorting: the same sort
// runs once in memory and once under a budget small enough to cut many
// on-disk runs, and the ratio of the two times is emitted as
// spill_overhead. The metric is measured inside one run on one host, so
// cmd/benchcmp gates it absolutely (no baseline, survives host changes):
// spilling must cost a bounded constant factor, not an order of
// magnitude.
func BenchmarkExternalSortSpill(b *testing.B) {
	const rows = 200000
	pt := benchTable(rows, true)
	mkSort := func() Operator {
		return &Sort{
			Child: NewScan(pt, "", nil, 8192),
			Keys:  []SortKey{{Col: "v", Desc: true}, {Col: "grp"}},
			Limit: -1,
		}
	}
	dir := b.TempDir()
	var memT, spillT time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := Drain(mkSort()); err != nil {
			b.Fatal(err)
		}
		memT += time.Since(t0)
		// 64 KiB against a multi-MB input: dozens of runs, external merge.
		mb := queryBudget(64<<10, dir)
		t1 := time.Now()
		if _, err := DrainEnv(&Env{Budget: mb}, mkSort()); err != nil {
			b.Fatal(err)
		}
		spillT += time.Since(t1)
		if mb.Spills() == 0 {
			b.Fatal("budgeted sort did not spill")
		}
		mb.Cleanup()
	}
	b.StopTimer()
	b.ReportMetric(float64(spillT)/float64(memT), "spill_overhead")
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkProjectLiteralArith(b *testing.B) {
	const rows = 100000
	pt := benchTable(rows, true)
	benchDrain(b, func() Operator {
		return &Project{
			Child: NewScan(pt, "", nil, 8192),
			Exprs: []NamedExpr{
				{Name: "k", E: Col("k")},
				// Literal chain over a temporary: the scalar kernels write
				// the whole chain into one buffer.
				{Name: "v2", E: NewBinOp(OpAdd,
					NewBinOp(OpMul, Col("v"), Num(2)), Num(1))},
				{Name: "grp", E: Col("grp")},
			},
		}
	}, rows)
}

// BenchmarkChunkedScan prices the chunk-backed scan on the shape of the
// repository benchmark's point_lookup table — 131 072 rows in 8192-row
// chunks with a sorted key, read in 1024-row batches: a full scan, which
// decodes every chunk exactly once; a point filter on the sorted key,
// which the chunk zone maps cut to one chunk; and a dense filter keeping
// ~90 % of every chunk (v is normal with σ 50, so v > -64 keeps 90 %),
// which no zone map skips and which pays the predicate evaluation and the
// positional decodes of the rows it keeps — serial and under a DOP-2
// exchange. chunks_decoded/op is the work that must not creep back up.
func BenchmarkChunkedScan(b *testing.B) {
	const rows, batch = 131072, 1024
	src := benchTable(rows, true).Parts[0].Table
	ids := make([]int64, rows)
	for i := range ids {
		ids[i] = int64(i)
	}
	tb := data.MustNewTable("t", append([]*data.Column{data.NewInt("id", ids)}, src.Cols...)...)
	cpt, err := data.SinglePartition(tb).ChunkEncode(data.DefaultChunkRows)
	if err != nil {
		b.Fatal(err)
	}
	shapes := map[string]func() Operator{
		"full": func() Operator { return NewScan(cpt, "", nil, batch) },
		"point": func() Operator {
			scan := NewScan(cpt, "", nil, batch)
			scan.Prune = []ZonePredicate{{Col: "id", Op: OpEq, Val: rows / 2}}
			return &Filter{Child: scan, Pred: NewBinOp(OpEq, Col("id"), Num(rows/2))}
		},
		"dense": func() Operator {
			scan := NewScan(cpt, "", nil, batch)
			scan.Prune = []ZonePredicate{{Col: "v", Op: OpGt, Val: -64}}
			return &Filter{Child: scan, Pred: NewBinOp(OpGt, Col("v"), Num(-64))}
		},
	}
	for _, shape := range []string{"full", "point", "dense"} {
		for _, dop := range []int{1, 2} {
			b.Run(fmt.Sprintf("shape=%s/dop=%d", shape, dop), func(b *testing.B) {
				var decoded int64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					root, err := Parallelize(shapes[shape](), dop, batch)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := Drain(root); err != nil {
						b.Fatal(err)
					}
					sc, err := scanOf(root)
					if err != nil {
						b.Fatal(err)
					}
					decoded += sc.Stats().ChunksDecoded
				}
				b.ReportMetric(float64(decoded)/float64(b.N), "chunks_decoded/op")
			})
		}
	}
}
