package data

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// Round-trip and storage tests for the compressed block encoding, the
// chunked table layer and the streaming chunked CSV loader.

// assertColumnsIdentical compares two columns value-for-value through
// AsString (exact for every type, including float bit patterns).
func assertColumnsIdentical(t *testing.T, want, got *Column) {
	t.Helper()
	if got.Type != want.Type || got.Len() != want.Len() {
		t.Fatalf("column %q: got %s×%d, want %s×%d",
			want.Name, got.Type, got.Len(), want.Type, want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if want.AsString(i) != got.AsString(i) {
			t.Fatalf("column %q row %d: %q != %q", want.Name, i, got.AsString(i), want.AsString(i))
		}
	}
}

func roundTrip(t *testing.T, c *Column) (*Column, BlockMeta, []byte) {
	t.Helper()
	m, raw, err := EncodeColumn(c)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeColumn(m, raw)
	if err != nil {
		t.Fatal(err)
	}
	assertColumnsIdentical(t, c, out)
	return out, m, raw
}

func TestEncodeIntFOR(t *testing.T) {
	// General case: negatives, non-trivial deltas.
	_, m, raw := roundTrip(t, NewInt("a", []int64{-5, 1000, 3, -5, 77}))
	if m.Enc != EncIntFOR || m.Min != -5 {
		t.Fatalf("meta = %+v, want FOR base -5", m)
	}
	if len(raw) >= 5*8 {
		t.Fatalf("FOR block is %d bytes, no smaller than raw", len(raw))
	}
	// Constant block: width 0, empty payload.
	_, m, raw = roundTrip(t, NewInt("c", []int64{42, 42, 42, 42}))
	if m.Width != 0 || len(raw) != 0 {
		t.Fatalf("constant block width=%d payload=%d, want 0/0", m.Width, len(raw))
	}
	// Full-range extremes force 64-bit deltas through two's-complement
	// wraparound (MaxInt64 - MinInt64 overflows signed arithmetic).
	roundTrip(t, NewInt("x", []int64{math.MinInt64, math.MaxInt64, 0, -1, math.MinInt64}))
}

func TestEncodeFloatBoolString(t *testing.T) {
	roundTrip(t, NewFloat("f", []float64{1.5, math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0}))
	roundTrip(t, NewBool("b", []bool{true, false, true, true, false, false, true}))
	roundTrip(t, NewString("s", []string{"x", "", "日本語", strings.Repeat("y", 300), "x"}))
}

func TestEncodeDictKeepsPointerIdentity(t *testing.T) {
	c := DictEncode(NewString("g", []string{"a", "b", "a", "c", "b"}))
	if c.Dict == nil {
		t.Fatal("fixture not dict-encoded")
	}
	out, m, _ := roundTrip(t, c)
	if m.Enc != EncDictCodes {
		t.Fatalf("enc = %v, want EncDictCodes", m.Enc)
	}
	if out.Dict != c.Dict {
		t.Fatal("decode did not preserve the dictionary pointer")
	}
}

func TestDecodeValidityBitmap(t *testing.T) {
	c := NewInt("n", []int64{7, 0, 9, 0})
	m, raw, err := EncodeColumn(c)
	if err != nil {
		t.Fatal(err)
	}
	// Mark rows 1 and 3 absent: they must decode to the zero value even
	// though the payload carries other numbers there.
	m.Valid = PackBits([]bool{true, false, true, false})
	out, err := DecodeColumn(m, raw)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{7, 0, 9, 0}
	for i, w := range want {
		if out.I64[i] != w {
			t.Fatalf("row %d = %d, want %d", i, out.I64[i], w)
		}
	}
}

func TestChunkedBuilderRoundTrip(t *testing.T) {
	n := 1000
	ids := make([]int64, n)
	vs := make([]float64, n)
	gs := make([]string, n)
	for i := range ids {
		ids[i] = int64(i)
		vs[i] = float64(i) * 0.5
		gs[i] = []string{"a", "b", "c"}[i%3]
	}
	src := MustNewTable("t", NewInt("id", ids), NewFloat("v", vs), NewString("g", gs))
	b := NewChunkedBuilder("t", 128)
	// Append in uneven slices to exercise chunk cutting across appends.
	for lo := 0; lo < n; {
		hi := lo + 77
		if hi > n {
			hi = n
		}
		if err := b.Append(src.Slice(lo, hi)); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	ct, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if ct.NumRows() != n {
		t.Fatalf("rows = %d, want %d", ct.NumRows(), n)
	}
	if want := (n + 127) / 128; ct.NumChunks() != want {
		t.Fatalf("chunks = %d, want %d", ct.NumChunks(), want)
	}
	whole, err := ct.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range src.Cols {
		assertColumnsIdentical(t, c, whole.Col(c.Name))
	}
	// The sequential id column and the 3-value group column compress.
	if cb := ct.CompressedBytes(); cb >= src.ByteSize() {
		t.Errorf("compressed %d bytes >= raw %d", cb, src.ByteSize())
	}
	// Per-morsel reader over a column subset.
	r := ct.Reader([]string{"id", "g"})
	rows := 0
	for {
		batch, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		if batch.NumCols() != 2 {
			t.Fatalf("reader batch has %d cols, want 2", batch.NumCols())
		}
		for i := 0; i < batch.NumRows(); i++ {
			if got, want := batch.Col("id").I64[i], ids[rows+i]; got != want {
				t.Fatalf("row %d id = %d, want %d", rows+i, got, want)
			}
		}
		rows += batch.NumRows()
	}
	if rows != n {
		t.Fatalf("reader yielded %d rows, want %d", rows, n)
	}
	// A missing requested column errors rather than silently narrowing.
	if _, err := ct.Chunk(0).Decode("t", []string{"nope"}); err == nil {
		t.Fatal("decoding a missing column did not error")
	}
}

func TestReadCSVChunkedMatchesReadCSV(t *testing.T) {
	csv := "id,score,grp,flag\n"
	var sb strings.Builder
	sb.WriteString(csv)
	for i := 0; i < 500; i++ {
		g := []string{"north", "south", "east"}[i%3]
		sb.WriteString(
			strings.Join([]string{
				itoa(i), "0." + itoa(i%97), g, []string{"true", "false"}[i%2],
			}, ",") + "\n")
	}
	want, err := ReadCSV("t", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ReadCSVChunked("t", strings.NewReader(sb.String()), 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ct.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range want.Cols {
		assertColumnsIdentical(t, c, got.Col(c.Name))
	}
	// One dictionary spans all chunks of a string column, patched in after
	// streaming froze it.
	g0, err := ct.Chunk(0).Decode("t", []string{"grp"})
	if err != nil {
		t.Fatal(err)
	}
	gLast, err := ct.Chunk(ct.NumChunks()-1).Decode("t", []string{"grp"})
	if err != nil {
		t.Fatal(err)
	}
	if g0.Col("grp").Dict == nil || g0.Col("grp").Dict != gLast.Col("grp").Dict {
		t.Fatal("chunks do not share one dictionary")
	}
}

func TestReadCSVChunkedNulls(t *testing.T) {
	// Empty numeric/bool fields become nulls (decode to zero values);
	// plain ReadCSV rejects the same input.
	csv := "id,v,ok\n1,2.5,true\n,,\n3,,false\n"
	if _, err := ReadCSV("t", strings.NewReader(csv)); err == nil {
		t.Fatal("ReadCSV accepted empty numeric fields")
	}
	ct, err := ReadCSVChunked("t", strings.NewReader(csv), 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ct.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Col("id").I64; got[0] != 1 || got[1] != 0 || got[2] != 3 {
		t.Fatalf("id = %v, want [1 0 3]", got)
	}
	if got := out.Col("v").F64; got[0] != 2.5 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("v = %v, want [2.5 0 0]", got)
	}
	if got := out.Col("ok").B; !got[0] || got[1] || got[2] {
		t.Fatalf("ok = %v, want [true false false]", got)
	}
	// Headers-only input: zero chunks, schema preserved.
	ct, err = ReadCSVChunked("t", strings.NewReader("a,b\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if ct.NumChunks() != 0 || ct.NumRows() != 0 || len(ct.Schema()) != 2 {
		t.Fatalf("headers-only: chunks=%d rows=%d schema=%d", ct.NumChunks(), ct.NumRows(), len(ct.Schema()))
	}
	if empty, err := ct.Decode(); err != nil || empty.NumCols() != 2 || empty.NumRows() != 0 {
		t.Fatalf("headers-only Decode = %v, %v; want 2 columns × 0 rows", empty, err)
	}
}

// itoa is a tiny strconv.Itoa stand-in keeping the fixture loop terse.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// TestFlattenPropagatesAppendError is the regression test for the
// silently-ignored AppendFrom error: partitions whose columns disagree
// must surface the error instead of returning a corrupt concatenation.
func TestFlattenPropagatesAppendError(t *testing.T) {
	p := &PartitionedTable{Name: "bad", Parts: []*Partition{
		{Table: MustNewTable("p1", NewFloat("v", []float64{1, 2}))},
		{Table: MustNewTable("p2", NewInt("v", []int64{3}))},
	}}
	if _, err := p.Flatten(); err == nil {
		t.Fatal("Flatten over mismatched partitions did not error")
	}
	// Partitions with per-partition dictionaries (different pointers) are
	// legal: flattening decodes, it must not error or drop rows.
	c1 := DictEncode(NewString("g", []string{"a", "b"}))
	c2 := DictEncode(NewString("g", []string{"b", "c"}))
	if c1.Dict == c2.Dict {
		t.Fatal("fixture dictionaries unexpectedly shared")
	}
	pd := &PartitionedTable{Name: "dicts", Parts: []*Partition{
		{Table: MustNewTable("p1", c1)},
		{Table: MustNewTable("p2", c2)},
	}}
	flat, err := pd.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "b", "c"}
	if flat.NumRows() != len(want) {
		t.Fatalf("rows = %d, want %d", flat.NumRows(), len(want))
	}
	for i, w := range want {
		if got := flat.Col("g").AsString(i); got != w {
			t.Fatalf("row %d = %q, want %q", i, got, w)
		}
	}
}

// refPackUints is the bit-at-a-time reference packer: vals at the given
// width, one bit per iteration, into a little-endian LSB-first stream.
func refPackUints(vals []uint64, width uint8) []byte {
	if width == 0 {
		return nil
	}
	out := make([]byte, (len(vals)*int(width)+7)/8)
	bit := 0
	for _, v := range vals {
		for b := 0; b < int(width); b++ {
			if v&(1<<b) != 0 {
				out[bit>>3] |= 1 << (bit & 7)
			}
			bit++
		}
	}
	return out
}

// refUnpackUints reverses refPackUints for n values, one bit per iteration.
func refUnpackUints(raw []byte, n int, width uint8) []uint64 {
	out := make([]uint64, n)
	bit := 0
	for i := range out {
		var v uint64
		for b := 0; b < int(width); b++ {
			if raw[bit>>3]&(1<<(bit&7)) != 0 {
				v |= 1 << b
			}
			bit++
		}
		out[i] = v
	}
	return out
}

// TestPackUnpackMatchesReference pins the word-at-a-time codec to the
// bit-at-a-time reference at every width and at row counts on both sides
// of the short-tail path (fewer than 9 payload bytes left): identical
// payload bytes, identical decoded values, for int64 values around a
// negative base and for int32 codes, and Int64 blocks spanning the full
// MinInt64..MaxInt64 range through EncodeColumn/DecodeColumn.
func TestPackUnpackMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	negBase := int64(math.MinInt64 / 3)
	for w := 0; w <= 64; w++ {
		width := uint8(w)
		mask := uint64(1)<<w - 1
		for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 8191, 8192} {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = r.Uint64() & mask
			}
			want := refPackUints(vals, width)
			refVals := refUnpackUints(want, n, width)
			for i := range vals {
				if refVals[i] != vals[i] {
					t.Fatalf("width %d n %d: reference round trip broke at row %d", w, n, i)
				}
			}

			base := uint64(negBase)
			src := make([]int64, n)
			for i, v := range vals {
				src[i] = int64(base + v)
			}
			raw := packUints(src, width, base)
			if !bytes.Equal(raw, want) || len(raw) != (n*w+7)/8 {
				t.Fatalf("width %d n %d: int64 payload differs from the reference", w, n)
			}
			got := make([]int64, n)
			unpackUints(got, raw, width, base)
			for i := range got {
				if got[i] != int64(base+refVals[i]) {
					t.Fatalf("width %d n %d row %d: unpacked %d, reference %d", w, n, i, got[i], int64(base+refVals[i]))
				}
			}

			if w <= 32 {
				codes := make([]int32, n)
				for i, v := range vals {
					codes[i] = int32(uint32(v))
				}
				if raw := packUints(codes, width, 0); !bytes.Equal(raw, want) {
					t.Fatalf("width %d n %d: int32 payload differs from the reference", w, n)
				}
				gotCodes := make([]int32, n)
				unpackUints(gotCodes, want, width, 0)
				for i := range gotCodes {
					if gotCodes[i] != codes[i] {
						t.Fatalf("width %d n %d row %d: unpacked code %d, want %d", w, n, i, gotCodes[i], codes[i])
					}
				}
			}

			if n < 2 {
				continue
			}
			// The block's own range sets its width: pin both ends so the
			// Int64 block packs at exactly w, the widest one from MinInt64
			// to MaxInt64.
			lo := int64(-1) << 62
			if w == 64 {
				lo = math.MinInt64
			}
			ints := make([]int64, n)
			for i, v := range vals {
				ints[i] = int64(uint64(lo) + v)
			}
			ints[0], ints[n-1] = lo, int64(uint64(lo)+mask)
			m, raw, err := EncodeColumn(NewInt("i", ints))
			if err != nil {
				t.Fatal(err)
			}
			if m.Width != width || m.Min != lo {
				t.Fatalf("width %d n %d: block width %d base %d, want %d/%d", w, n, m.Width, m.Min, w, lo)
			}
			deltas := make([]uint64, n)
			for i, v := range ints {
				deltas[i] = uint64(v) - uint64(lo)
			}
			if !bytes.Equal(raw, refPackUints(deltas, width)) {
				t.Fatalf("width %d n %d: EncodeColumn payload differs from the reference", w, n)
			}
			out, err := DecodeColumn(m, raw)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ints {
				if out.I64[i] != ints[i] {
					t.Fatalf("width %d n %d row %d: decoded %d, want %d", w, n, i, out.I64[i], ints[i])
				}
			}
		}
	}
}

// TestDecodeColumnRejectsBadBlocks is the regression test for blocks
// whose metadata and payload disagree: each used to index out of range,
// allocate a negative length, or decode a width no value can have without
// complaint. Each must now be an error naming the block.
func TestDecodeColumnRejectsBadBlocks(t *testing.T) {
	dict := NewDictionary([]string{"a", "b", "c"})
	ones := bytes.Repeat([]byte{0xff}, 32)
	cases := []struct {
		name string
		m    BlockMeta
		raw  []byte
	}{
		// 10 rows × 17 bits need 22 bytes.
		{"int payload short", BlockMeta{Type: Int64, Enc: EncIntFOR, Rows: 10, Width: 17}, ones[:21]},
		// 9 rows × 2 bits need 3 bytes.
		{"dict payload short", BlockMeta{Type: String, Enc: EncDictCodes, Rows: 9, Width: 2, Dict: dict}, []byte{0, 0}},
		// 17 bools need 3 bytes.
		{"bits payload short", BlockMeta{Type: Bool, Enc: EncBits, Rows: 17}, []byte{1, 1}},
		// 9 rows need a 2-byte bitmap.
		{"validity bitmap short", BlockMeta{Type: Int64, Enc: EncIntFOR, Rows: 9, Valid: []byte{0xff}}, nil},
		{"int width above 64", BlockMeta{Type: Int64, Enc: EncIntFOR, Rows: 1, Width: 65}, ones},
		{"dict width above 32", BlockMeta{Type: String, Enc: EncDictCodes, Rows: 1, Width: 33, Dict: dict}, make([]byte, 8)},
		{"negative rows", BlockMeta{Type: Int64, Enc: EncIntFOR, Rows: -1}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.m.Name = "blk"
			c, err := DecodeColumn(tc.m, tc.raw)
			if err == nil {
				t.Fatalf("decoded %d rows, want an error", c.Len())
			}
			if !strings.Contains(err.Error(), `"blk"`) {
				t.Fatalf("error %q does not name the block", err)
			}
		})
	}
}

// FuzzDecodeColumn decodes arbitrary blocks, in full and at the positions
// a bitmap selects. DecodeColumn must never panic, must allocate no more
// than the rows and payload account for, and whatever it decodes must
// survive EncodeColumn → DecodeColumn unchanged. DecodeColumnAt must never
// panic either, must allocate no more than the selected rows and payload
// account for, and must return DecodeColumn's column gathered at the
// positions, or DecodeColumn's error — except that a code outside the
// dictionary is its error only at a selected row, where it names that row.
// The committed corpus (testdata/fuzz/FuzzDecodeColumn) holds canonical
// blocks at widths 0–64 with row counts around the short-tail path, plus
// one block per rejected shape, each with a position bitmap.
func FuzzDecodeColumn(f *testing.F) {
	types := [...]Type{EncRawFloat: Float64, EncIntFOR: Int64, EncDictCodes: String, EncBits: Bool, EncRawString: String}
	dicts := make([]*Dictionary, 16)
	for i := range dicts {
		vals := make([]string, i)
		for j := range vals {
			vals[j] = itoa(j)
		}
		dicts[i] = NewDictionary(vals)
	}
	f.Fuzz(func(t *testing.T, enc, width uint8, rows uint16, base int64, dictLen uint8, raw, valid, mask []byte) {
		m := BlockMeta{Name: "f", Rows: int(rows), Enc: Encoding(enc % 6), Width: width, Min: base}
		if int(m.Enc) < len(types) {
			m.Type = types[m.Enc]
		}
		if m.Enc == EncDictCodes {
			m.Dict = dicts[int(dictLen)%len(dicts)]
		}
		if len(valid) > 0 {
			m.Valid = valid
		}
		pos := []int32{}
		for i := 0; i < m.Rows && i < 8*len(mask); i++ {
			if BitAt(mask, i) {
				pos = append(pos, int32(i))
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := DecodeColumn(m, raw)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, 64*uint64(rows)+2*uint64(len(raw))+4096; got > bound {
			t.Fatalf("decode allocated %d bytes for %d rows of %d payload bytes, bound %d", got, rows, len(raw), bound)
		}
		runtime.ReadMemStats(&before)
		at, errAt := DecodeColumnAt(m, raw, pos)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(pos))+2*uint64(len(raw))+4096; got > bound {
			t.Fatalf("positional decode allocated %d bytes for %d of %d rows of %d payload bytes, bound %d", got, len(pos), rows, len(raw), bound)
		}
		checkDecodeAt(t, m, raw, pos, c, err, at, errAt)
		if err != nil {
			return
		}
		if c.Len() != m.Rows {
			t.Fatalf("decoded %d rows, block has %d", c.Len(), m.Rows)
		}
		m2, raw2, err := EncodeColumn(c)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := DecodeColumn(m2, raw2)
		if err != nil {
			t.Fatal(err)
		}
		assertColumnsIdentical(t, c, c2)
	})
}

// checkDecodeAt asserts that DecodeColumnAt(m, raw, pos) — at, errAt —
// agrees with DecodeColumn(m, raw) — full, err: the full column gathered
// at pos, or the same error. A code outside the dictionary fails the
// positional decode only at a selected row, and its error names that row.
func checkDecodeAt(t *testing.T, m BlockMeta, raw []byte, pos []int32, full *Column, err error, at *Column, errAt error) {
	t.Helper()
	if err != nil && strings.Contains(err.Error(), "outside dictionary") {
		codes := refUnpackUints(raw, m.Rows, m.Width)
		limit := uint64(m.Dict.Len())
		for _, p := range pos {
			if codes[p] >= limit {
				want := fmt.Sprintf("data: block %q row %d: code %d outside dictionary of %d", m.Name, p, codes[p], limit)
				if errAt == nil || errAt.Error() != want {
					t.Fatalf("positional decode: error %v, want %q", errAt, want)
				}
				return
			}
		}
		if errAt != nil {
			t.Fatalf("positional decode of in-dictionary rows failed: %v", errAt)
		}
		for i, p := range pos {
			if uint64(uint32(at.Codes[i])) != codes[p] || at.Dict != m.Dict {
				t.Fatalf("position %d: code %d, want %d", p, at.Codes[i], codes[p])
			}
		}
		return
	}
	if err != nil {
		if errAt == nil || errAt.Error() != err.Error() {
			t.Fatalf("positional decode: error %v, full decode %v", errAt, err)
		}
		return
	}
	if errAt != nil {
		t.Fatalf("positional decode failed where the full decode did not: %v", errAt)
	}
	idx := make([]int, len(pos))
	for i, p := range pos {
		idx[i] = int(p)
	}
	want := full.Gather(idx)
	assertColumnsIdentical(t, want, at)
	if at.Name != want.Name || at.Dict != want.Dict || at.IsDict() != want.IsDict() {
		t.Fatalf("positional decode changed the representation: %+v vs %+v", at, want)
	}
}

// TestDecodeColumnAtMatchesFullDecode pins DecodeColumnAt to DecodeColumn
// gathered at the same positions: frame-of-reference Int64 blocks at every
// width 0–64 and row counts on both sides of the short-tail path, dict
// codes, floats, bools and raw strings, each with and without a validity
// bitmap, at the first row, the last row, the rows whose 64-bit window
// starts in the last 9 payload bytes, every row and none.
func TestDecodeColumnAtMatchesFullDecode(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dict := NewDictionary([]string{"a", "b", "c", "d", "e"})
	var cols []*Column
	for w := 0; w <= 64; w++ {
		for _, n := range []int{1, 7, 9, 64, 65, 300} {
			mask := uint64(1)<<w - 1
			lo := int64(-1) << 62
			if w == 64 {
				lo = math.MinInt64
			}
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(uint64(lo) + r.Uint64()&mask)
			}
			vals[0] = lo
			vals[n-1] = int64(uint64(lo) + mask)
			cols = append(cols, NewInt("w"+itoa(w), vals))
		}
	}
	for _, n := range []int{1, 9, 300} {
		f := make([]float64, n)
		b := make([]bool, n)
		s := make([]string, n)
		codes := make([]int32, n)
		for i := range f {
			f[i] = r.NormFloat64()
			b[i] = r.Intn(2) == 0
			s[i] = strings.Repeat("x", r.Intn(200))
			codes[i] = int32(r.Intn(dict.Len()))
		}
		f[0], f[n-1] = math.NaN(), math.Copysign(0, -1)
		cols = append(cols, NewFloat("f", f), NewBool("b", b), NewString("s", s),
			&Column{Name: "d", Type: String, Dict: dict, Codes: codes})
	}
	for _, c := range cols {
		m, raw, err := EncodeColumn(c)
		if err != nil {
			t.Fatal(err)
		}
		n := c.Len()
		every := make([]int32, n)
		for i := range every {
			every[i] = int32(i)
		}
		var tail []int32
		if m.Width > 0 {
			for i := range every {
				if i*int(m.Width)/8+9 > len(raw) {
					tail = append(tail, int32(i))
				}
			}
		}
		validity := make([]bool, n)
		for i := range validity {
			validity[i] = r.Intn(3) > 0
		}
		for _, valid := range [][]byte{nil, PackBits(validity)} {
			m.Valid = valid
			full, err := DecodeColumn(m, raw)
			if err != nil {
				t.Fatal(err)
			}
			for _, pos := range [][]int32{{0}, {int32(n - 1)}, tail, every, {}} {
				at, errAt := DecodeColumnAt(m, raw, pos)
				checkDecodeAt(t, m, raw, pos, full, nil, at, errAt)
			}
		}
	}
}

// TestDecodeColumnAtRejectsBadPositions: positions must ascend strictly
// within the block; anything else is an error, never an out-of-range read.
func TestDecodeColumnAtRejectsBadPositions(t *testing.T) {
	m, raw, err := EncodeColumn(NewInt("i", []int64{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range [][]int32{{-1}, {3}, {1, 1}, {2, 0}} {
		if c, err := DecodeColumnAt(m, raw, pos); err == nil {
			t.Fatalf("positions %v: decoded %d rows, want an error", pos, c.Len())
		}
	}
}

// BenchmarkDecodeColumn prices DecodeColumn on one 8192-row block per
// encoding: frame-of-reference Int64 at widths 1/17/33/64, dict codes at
// width 8, raw floats and bools.
func BenchmarkDecodeColumn(b *testing.B) {
	const rows = 8192
	r := rand.New(rand.NewSource(1))
	type block struct {
		name string
		col  *Column
	}
	var blocks []block
	for _, w := range []int{1, 17, 33, 64} {
		mask := uint64(1)<<w - 1
		lo := int64(-1000)
		if w == 64 {
			lo = math.MinInt64
		}
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = int64(uint64(lo) + r.Uint64()&mask)
		}
		vals[0], vals[1] = lo, int64(uint64(lo)+mask)
		blocks = append(blocks, block{"for_int64/width=" + itoa(w), NewInt("i", vals)})
	}
	dictVals := make([]string, 256)
	for i := range dictVals {
		dictVals[i] = "v" + itoa(i)
	}
	strs := make([]string, rows)
	for i := range strs {
		strs[i] = dictVals[r.Intn(len(dictVals))]
	}
	strs[0] = dictVals[len(dictVals)-1]
	floats := make([]float64, rows)
	bools := make([]bool, rows)
	for i := range floats {
		floats[i] = r.NormFloat64()
		bools[i] = r.Intn(2) == 1
	}
	blocks = append(blocks,
		block{"dict/width=8", DictEncode(NewString("s", strs))},
		block{"raw_float", NewFloat("f", floats)},
		block{"bool", NewBool("b", bools)})
	for _, blk := range blocks {
		m, raw, err := EncodeColumn(blk.col)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(blk.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := DecodeColumn(m, raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
