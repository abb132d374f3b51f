package data

import (
	"fmt"
	"math"
	"testing"
)

// Chunk-backed partition tests: DecodeRange must reproduce the exact
// bytes of slicing the source table (floats bitwise, dictionary columns
// over the same shared *Dictionary), and ChunkPartitioned's streamed
// statistics must equal the whole-table statistics.

// chunkFixture builds a table with every column representation: float,
// int, bool, raw string and dictionary-encoded string.
func chunkFixture(t *testing.T, n int) *Table {
	t.Helper()
	ids := make([]int64, n)
	vs := make([]float64, n)
	flags := make([]bool, n)
	raw := make([]string, n)
	ds := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		vs[i] = float64(i) * 0.1 // inexact in binary: catches any re-rounding
		flags[i] = i%3 == 0
		raw[i] = fmt.Sprintf("s%03d", i%7)
		ds[i] = []string{"aa", "bb", "cc", "dd", "ee"}[i%5]
	}
	return MustNewTable("t",
		NewInt("id", ids), NewFloat("v", vs), NewBool("flag", flags),
		NewString("s", raw), DictEncode(NewString("d", ds)))
}

// chunkOf encodes the table into chunks of chunkRows rows.
func chunkOf(t *testing.T, src *Table, chunkRows int) *ChunkedTable {
	t.Helper()
	b := NewChunkedBuilder(src.Name, chunkRows)
	if err := b.Append(src); err != nil {
		t.Fatal(err)
	}
	ct, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// assertTableBits compares two tables bit-for-bit: same shape, same
// column types and representation (raw vs dict), identical float bits.
func assertTableBits(t *testing.T, want, got *Table) {
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
		// Representation (raw vs dict) must match for non-empty results;
		// zero-row tables are schema-only and carry no dictionaries.
		if gc.Type != wc.Type || (want.NumRows() > 0 && gc.IsDict() != wc.IsDict()) {
			t.Fatalf("column %q: type/repr %v/%v, want %v/%v",
				wc.Name, gc.Type, gc.IsDict(), wc.Type, wc.IsDict())
		}
		for i := 0; i < wc.Len(); i++ {
			switch wc.Type {
			case Float64:
				if math.Float64bits(wc.F64[i]) != math.Float64bits(gc.F64[i]) {
					t.Fatalf("column %q row %d: float bits %x != %x",
						wc.Name, i, gc.F64[i], wc.F64[i])
				}
			default:
				if wc.AsString(i) != gc.AsString(i) {
					t.Fatalf("column %q row %d: %s != %s",
						wc.Name, i, gc.AsString(i), wc.AsString(i))
				}
			}
		}
	}
}

func TestDecodeRangeMatchesSlice(t *testing.T) {
	const n = 1000
	src := chunkFixture(t, n)
	ct := chunkOf(t, src, 97) // deliberately misaligned with every batch size
	ranges := [][2]int{
		{0, 0}, {0, 1}, {0, 97}, {0, 98}, {5, 90}, {96, 98},
		{97, 194}, {100, 500}, {950, n}, {0, n},
	}
	for _, r := range ranges {
		got, err := ct.DecodeRange(r[0], r[1], nil, nil)
		if err != nil {
			t.Fatalf("DecodeRange(%d,%d): %v", r[0], r[1], err)
		}
		assertTableBits(t, src.Slice(r[0], r[1]), got)
	}
	// Dictionary columns decode over the source table's own dictionary —
	// pointer identity, not just equal values — so dict fast paths survive.
	got, err := ct.DecodeRange(0, n, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Col("d").Dict != src.Col("d").Dict {
		t.Fatal("decoded dict column does not share the source dictionary")
	}
	if _, err := ct.DecodeRange(-1, 5, nil, nil); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, err := ct.DecodeRange(0, n+1, nil, nil); err == nil {
		t.Fatal("hi beyond rows accepted")
	}
}

func TestDecodeRangeCachedForwardWalk(t *testing.T) {
	const n = 1000
	src := chunkFixture(t, n)
	ct := chunkOf(t, src, 97)
	cols := []string{"v", "d"}
	proj, err := src.Project(cols)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewChunkCache()
	for lo := 0; lo < n; lo += 128 {
		hi := min(lo+128, n)
		got, err := ct.DecodeRange(lo, hi, cols, cache)
		if err != nil {
			t.Fatalf("DecodeRange(%d,%d): %v", lo, hi, err)
		}
		assertTableBits(t, proj.Slice(lo, hi), got)
	}
}

func TestChunkPartitionedStatsMatchWholeTable(t *testing.T) {
	const n = 1000
	src := chunkFixture(t, n)
	pt, err := ChunkPartitioned(chunkOf(t, src, 97))
	if err != nil {
		t.Fatal(err)
	}
	if pt.NumRows() != n {
		t.Fatalf("NumRows = %d, want %d", pt.NumRows(), n)
	}
	want := ComputeTableStats(src)
	got := pt.Parts[0].Stats
	for name, ws := range want {
		gs, ok := got[name]
		if !ok {
			t.Fatalf("missing stats for %q", name)
		}
		if gs.Rows != ws.Rows || gs.DistinctOverflow != ws.DistinctOverflow {
			t.Fatalf("%q: rows/overflow %d/%v, want %d/%v",
				name, gs.Rows, gs.DistinctOverflow, ws.Rows, ws.DistinctOverflow)
		}
		if ws.HasRange() && (gs.Min != ws.Min || gs.Max != ws.Max) {
			t.Fatalf("%q: range [%v,%v], want [%v,%v]", name, gs.Min, gs.Max, ws.Min, ws.Max)
		}
		if len(gs.Distinct) != len(ws.Distinct) {
			t.Fatalf("%q: %d distinct, want %d", name, len(gs.Distinct), len(ws.Distinct))
		}
		for i := range ws.Distinct {
			if gs.Distinct[i] != ws.Distinct[i] {
				t.Fatalf("%q: distinct[%d] = %q, want %q", name, i, gs.Distinct[i], ws.Distinct[i])
			}
		}
	}
	flat, err := pt.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	assertTableBits(t, src, flat)
}

func TestChunkEncodePreservesPartitioning(t *testing.T) {
	src := chunkFixture(t, 600)
	pt, err := PartitionBy(src, "d")
	if err != nil {
		t.Fatal(err)
	}
	cpt, err := pt.ChunkEncode(97)
	if err != nil {
		t.Fatal(err)
	}
	if cpt.NumRows() != pt.NumRows() || len(cpt.Parts) != len(pt.Parts) {
		t.Fatalf("shape: %d rows / %d parts, want %d / %d",
			cpt.NumRows(), len(cpt.Parts), pt.NumRows(), len(pt.Parts))
	}
	for i, part := range cpt.Parts {
		if part.Chunked == nil || part.Table != nil {
			t.Fatalf("part %d not chunk-backed", i)
		}
		if part.Key != pt.Parts[i].Key {
			t.Fatalf("part %d key %q, want %q", i, part.Key, pt.Parts[i].Key)
		}
		dec, err := part.Chunked.Decode()
		if err != nil {
			t.Fatal(err)
		}
		assertTableBits(t, pt.Parts[i].Table, dec)
	}
	wantFlat, err := pt.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	gotFlat, err := cpt.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	assertTableBits(t, wantFlat, gotFlat)
}

// Per-chunk zone maps: ChunkPartitioned (streaming decoded chunks) and
// ChunkEncode (slicing the rows it cuts) must both keep one zone map per
// chunk that describes exactly that chunk's rows, and a NaN must mark its
// own chunk and survive the merge into the partition and global statistics.
func TestChunkStatsDescribeEachChunk(t *testing.T) {
	const n, chunkRows, nanRow = 1000, 97, 300
	src := chunkFixture(t, n)
	src.Col("v").F64[nanRow] = math.NaN()
	streamed, err := ChunkPartitioned(chunkOf(t, src, chunkRows))
	if err != nil {
		t.Fatal(err)
	}
	cut, err := SinglePartition(src).ChunkEncode(chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	for name, pt := range map[string]*PartitionedTable{"ChunkPartitioned": streamed, "ChunkEncode": cut} {
		part := pt.Parts[0]
		if len(part.ChunkStats) != part.Chunked.NumChunks() {
			t.Fatalf("%s: %d zone maps for %d chunks", name, len(part.ChunkStats), part.Chunked.NumChunks())
		}
		for i, zone := range part.ChunkStats {
			lo := i * chunkRows
			want := ComputeTableStats(src.Slice(lo, min(lo+chunkRows, n)))
			for col, ws := range want {
				gs := zone[col]
				if gs == nil || gs.Rows != ws.Rows || gs.HasNaN != ws.HasNaN ||
					(ws.HasRange() && (gs.Min != ws.Min || gs.Max != ws.Max)) ||
					fmt.Sprint(gs.Distinct) != fmt.Sprint(ws.Distinct) {
					t.Fatalf("%s chunk %d column %q: zone map %+v, want %+v", name, i, col, gs, ws)
				}
			}
			if zone["v"].HasNaN != (i == nanRow/chunkRows) {
				t.Fatalf("%s chunk %d: HasNaN = %v", name, i, zone["v"].HasNaN)
			}
		}
		if !part.Stats["v"].HasNaN || !pt.GlobalStats()["v"].HasNaN || part.Stats["id"].HasNaN {
			t.Fatalf("%s: NaN presence lost or invented in merged statistics", name)
		}
	}
}
