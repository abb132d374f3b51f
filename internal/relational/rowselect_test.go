package relational

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"raven/internal/data"
)

// Row-selective scan differential: a chunk-backed scan carrying zone
// predicates decodes only the rows that satisfy them, and the Filter the
// predicates were copied from must then see — and pass — exactly the
// batches it passes over the in-memory table: same rows, same batch
// boundaries, same bits. Batches of 1000 rows over 1024-row chunks make
// selections straddle batches and chunks.

const (
	rowSelBatch = 1000
	rowSelChunk = 1024
)

// rowSelFixture is 10 000 rows in three partitions (grp), every column
// type the block encodings know: id sorted (FOR, tight zone maps), k
// unsorted (FOR), f floats with a NaN every seventh row, s a dictionary
// string, r a raw string and b a bool. It returns the in-memory table and
// its chunk-backed copy.
func rowSelFixture(t *testing.T) (*data.PartitionedTable, *data.PartitionedTable) {
	t.Helper()
	const n = 10000
	r := rand.New(rand.NewSource(3))
	ids := make([]int64, n)
	ks := make([]int64, n)
	fs := make([]float64, n)
	ss := make([]string, n)
	rs := make([]string, n)
	bs := make([]bool, n)
	grp := make([]string, n)
	for i := range ids {
		ids[i] = int64(i)
		ks[i] = int64(i*37) % 50
		fs[i] = math.Round(r.NormFloat64()*4) / 4
		if i%7 == 3 {
			fs[i] = math.NaN()
		}
		ss[i] = []string{"apple", "kiwi", "pear", "plum"}[r.Intn(4)]
		rs[i] = fmt.Sprintf("r%03d", i%300)
		bs[i] = i%3 == 0
		grp[i] = []string{"a", "b", "c"}[i*3/n]
	}
	tb := data.MustNewTable("t", data.NewInt("id", ids), data.NewInt("k", ks), data.NewFloat("f", fs),
		data.DictEncode(data.NewString("s", ss)), data.NewString("r", rs), data.NewBool("b", bs),
		data.NewString("grp", grp))
	pt, err := data.PartitionBy(tb, "grp")
	if err != nil {
		t.Fatal(err)
	}
	cpt, err := pt.ChunkEncode(rowSelChunk)
	if err != nil {
		t.Fatal(err)
	}
	return pt, cpt
}

// rowSelNullFixture loads a CSV whose empty numeric and bool fields are
// nulls — blocks with validity bitmaps — chunk-backed, and returns the
// decoded table as its in-memory reference.
func rowSelNullFixture(t *testing.T) (*data.PartitionedTable, *data.PartitionedTable) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("id,x,y,flag,name\n")
	for i := 0; i < 5000; i++ {
		x, y, flag := fmt.Sprint(i%40), fmt.Sprintf("%.1f", float64(i%13)/2), fmt.Sprint(i%2 == 0)
		if i%5 == 1 {
			x = ""
		}
		if i%9 == 2 {
			y = ""
		}
		if i%11 == 4 {
			flag = ""
		}
		fmt.Fprintf(&sb, "%d,%s,%s,%s,n%d\n", i, x, y, flag, i%17)
	}
	ct, err := data.ReadCSVChunked("nulls", strings.NewReader(sb.String()), rowSelChunk)
	if err != nil {
		t.Fatal(err)
	}
	cpt, err := data.ChunkPartitioned(ct)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := ct.Decode()
	if err != nil {
		t.Fatal(err)
	}
	return data.SinglePartition(tb), cpt
}

type rowSelShape struct {
	name  string
	prune []ZonePredicate
}

// conj is the Filter predicate the zone predicates were copied from.
func (sh rowSelShape) conj() Expr {
	var pred Expr
	for _, z := range sh.prune {
		var lit Expr = Num(z.Val)
		if z.IsStr {
			lit = Str(z.StrV)
		}
		c := NewBinOp(z.Op, Col(z.Col), lit)
		if pred == nil {
			pred = c
		} else {
			pred = NewBinOp(OpAnd, pred, c)
		}
	}
	return pred
}

// rowSelShapes is every comparison operator over every column of
// rowSelFixture, plus the selection sizes that take the special paths:
// none in a live chunk, a single row, every row, and a range that leaves
// some chunks whole, one partial and the rest excluded.
func rowSelShapes() []rowSelShape {
	var out []rowSelShape
	ops := []BinOpKind{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	for _, op := range ops {
		for _, z := range []ZonePredicate{
			{Col: "id", Op: op, Val: 2500},
			{Col: "k", Op: op, Val: 10},
			{Col: "f", Op: op, Val: 0.5},
			{Col: "s", Op: op, IsStr: true, StrV: "kiwi"},
			{Col: "r", Op: op, IsStr: true, StrV: "r150"},
			{Col: "b", Op: op, Val: 1},
		} {
			out = append(out, rowSelShape{fmt.Sprintf("%s%s", z.Col, binOpNames[op]), []ZonePredicate{z}})
		}
	}
	return append(out,
		rowSelShape{"none-in-live-chunk", []ZonePredicate{{Col: "id", Op: OpEq, Val: 2500.5}}},
		rowSelShape{"single-row", []ZonePredicate{{Col: "id", Op: OpEq, Val: 4097}}},
		rowSelShape{"every-row", []ZonePredicate{{Col: "id", Op: OpGe, Val: 0}}},
		rowSelShape{"excludes-everything", []ZonePredicate{{Col: "k", Op: OpGt, Val: 100}}},
		rowSelShape{"range-and-string", []ZonePredicate{
			{Col: "id", Op: OpLt, Val: 3100}, {Col: "id", Op: OpGe, Val: 900}, {Col: "s", Op: OpNe, IsStr: true, StrV: "pear"}}},
	)
}

// rowSelNullShapes compare the nullable columns, whose nulls decode to 0.
func rowSelNullShapes() []rowSelShape {
	var out []rowSelShape
	for _, op := range []BinOpKind{OpEq, OpNe, OpLt, OpGe} {
		for _, z := range []ZonePredicate{
			{Col: "x", Op: op, Val: 0},
			{Col: "y", Op: op, Val: 3},
			{Col: "flag", Op: op, Val: 0},
			{Col: "name", Op: op, IsStr: true, StrV: "n3"},
		} {
			out = append(out, rowSelShape{fmt.Sprintf("%s%s", z.Col, binOpNames[op]), []ZonePredicate{z}})
		}
	}
	return out
}

// drainBatches returns every batch the operator emits, in order.
func drainBatches(t *testing.T, root Operator) []*data.Table {
	t.Helper()
	if err := root.Open(nil); err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	var out []*data.Table
	for {
		b, err := root.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out
		}
		out = append(out, b)
	}
}

func hasExchange(op Operator) bool {
	if _, ok := op.(*Exchange); ok {
		return true
	}
	for _, c := range op.Children() {
		if hasExchange(c) {
			return true
		}
	}
	return false
}

// fullDecodeStats is what a scan of the plan that decodes whole live
// chunks reports: Rows counts every row of every live chunk it walks, and
// ChunksDecoded one decode per live chunk per ChunkCache — one cache per
// partition for the serial cursor, one per exchange task.
func fullDecodeStats(t *testing.T, pt *data.PartitionedTable, prune []ZonePredicate, exchanged bool) (rows, decoded int64) {
	t.Helper()
	s := NewScan(pt, "", nil, rowSelBatch)
	s.Prune = prune
	if err := s.Open(nil); err != nil {
		t.Fatal(err)
	}
	morsels, err := s.Morsels(rowSelBatch)
	if err != nil {
		t.Fatal(err)
	}
	var groups []task
	if exchanged {
		groups = tasksOf(morsels)
	} else {
		for i, m := range morsels {
			if i > 0 && m.Part == morsels[i-1].Part {
				groups[len(groups)-1].n++
				continue
			}
			groups = append(groups, task{first: i, n: 1})
		}
	}
	for _, g := range groups {
		last := -1
		for _, m := range morsels[g.first : g.first+g.n] {
			p := pt.Parts[m.Part]
			start := 0
			for ci := 0; ci < p.Chunked.NumChunks(); ci++ {
				end := start + p.Chunked.Chunk(ci).Rows
				if start < m.Hi && end > m.Lo && !s.canSkip(p.ChunkStats[ci]) {
					rows += int64(min(end, m.Hi) - max(start, m.Lo))
					if ci != last {
						decoded++
						last = ci
					}
				}
				start = end
			}
		}
	}
	return rows, decoded
}

func TestRowSelectiveScanMatchesInMemory(t *testing.T) {
	mem, chunked := rowSelFixture(t)
	nullMem, nullChunked := rowSelNullFixture(t)
	fixtures := []struct {
		name        string
		mem, chunks *data.PartitionedTable
		cols        []string
		shapes      []rowSelShape
	}{
		{"types", mem, chunked, []string{"f", "id", "s", "r", "b", "k"}, rowSelShapes()},
		{"nulls", nullMem, nullChunked, nil, rowSelNullShapes()},
	}
	for _, fx := range fixtures {
		for _, sh := range fx.shapes {
			t.Run(fx.name+"/"+sh.name, func(t *testing.T) {
				want := drainBatches(t, &Filter{Child: NewScan(fx.mem, "", fx.cols, rowSelBatch), Pred: sh.conj()})
				for _, dop := range []int{0, 1, 2, 4} {
					scan := NewScan(fx.chunks, "", fx.cols, rowSelBatch)
					scan.Prune = sh.prune
					var root Operator = &Filter{Child: scan, Pred: sh.conj()}
					if dop > 0 {
						root = mustParallelize(t, root, dop, rowSelBatch)
					}
					got := drainBatches(t, root)
					if len(got) != len(want) {
						t.Fatalf("dop=%d: %d batches, in memory %d", dop, len(got), len(want))
					}
					for i := range want {
						assertTablesBits(t, want[i], got[i])
					}
					sc, err := scanOf(root)
					if err != nil {
						t.Fatal(err)
					}
					st := sc.Stats()
					rows, decoded := fullDecodeStats(t, fx.chunks, sh.prune, hasExchange(root))
					if st.Rows != rows || st.ChunksDecoded != decoded {
						t.Fatalf("dop=%d: scan reports %d rows and %d chunk decodes, a full decode %d and %d",
							dop, st.Rows, st.ChunksDecoded, rows, decoded)
					}
				}
			})
		}
	}
}
