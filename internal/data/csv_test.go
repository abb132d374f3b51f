package data

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"testing"
)

// refWriteCSV is the writer WriteCSV replaced, kept as its byte
// reference: every value rendered with fmt ("%d", "%g") and passed
// through encoding/csv.
func refWriteCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, t.NumCols())
	for j, c := range t.Cols {
		header[j] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	n := t.NumRows()
	rec := make([]string, t.NumCols())
	for i := 0; i < n; i++ {
		for j, c := range t.Cols {
			switch c.Type {
			case Float64:
				rec[j] = fmt.Sprintf("%g", c.F64[i])
			case Int64:
				rec[j] = fmt.Sprintf("%d", c.I64[i])
			default:
				rec[j] = c.AsString(i)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// hostileStrings are the fields whose quoting encoding/csv decides:
// separators, quotes, line breaks, the `\.` marker, Unicode spaces in
// first position only, the empty field and invalid UTF-8.
var hostileStrings = []string{
	"plain", ",", "a,b", `"`, `""`, `say "hi"`, "\r", "\n", "\r\n", "x\ry", "x\ny",
	`\.`, `\.x`, `x\.`, " lead", "trail ", "mid space", "\tlead", "\u00a0nbsp",
	"\u0085nel", "x ", "", "\xff\xfe", "\xff lead", " \xff", "é,\"",
}

var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 0.1 + 0.2, 1.0 / 3, math.NaN(), math.Inf(1), math.Inf(-1),
	1e20, 1e21, 1e-5, 1e-7, 5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, 123456789,
}

var edgeInts = []int64{math.MinInt64, math.MaxInt64, 0, -1, 42, 1 << 53}

// allTypesTable has n rows of every column type, cycling through the edge
// values, with the hostile strings both raw and dictionary-encoded.
func allTypesTable(t testing.TB, n int) *Table {
	t.Helper()
	f := make([]float64, n)
	iv := make([]int64, n)
	s := make([]string, n)
	b := make([]bool, n)
	for r := 0; r < n; r++ {
		f[r] = edgeFloats[r%len(edgeFloats)]
		iv[r] = edgeInts[r%len(edgeInts)]
		s[r] = hostileStrings[r%len(hostileStrings)]
		b[r] = r%3 == 0
	}
	tb, err := NewTable("t", NewInt("i", iv), NewFloat("f", f), NewString("raw", s),
		DictEncode(NewString("dict", append([]string(nil), s...))), NewBool("b", b))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// maxWriteSink records the bytes written and the largest single Write.
type maxWriteSink struct {
	bytes.Buffer
	max int
}

func (s *maxWriteSink) Write(p []byte) (int, error) {
	s.max = max(s.max, len(p))
	return s.Buffer.Write(p)
}

func TestWriteCSVMatchesReference(t *testing.T) {
	hostileHeader := make([]*Column, len(hostileStrings))
	for j, name := range hostileStrings {
		hostileHeader[j] = NewInt(name, nil)
	}
	tables := map[string]*Table{
		"every type":           allTypesTable(t, 3*len(hostileStrings)),
		"every type, flushing": allTypesTable(t, 20000),
		"zero rows":            allTypesTable(t, 0),
		"hostile header":       MustNewTable("h", hostileHeader...),
		"one empty field":      MustNewTable("e", NewString("", []string{"", "", "x"})),
		"no columns":           MustNewTable("none"),
	}
	for name, tb := range tables {
		var want bytes.Buffer
		if err := refWriteCSV(tb, &want); err != nil {
			t.Fatal(err)
		}
		var got maxWriteSink
		if err := WriteCSV(tb, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteCSV wrote\n%q\nreference wrote\n%q", name, got.Bytes(), want.Bytes())
		}
		if got.max > csvFlushAt+csvFlushAt/8 {
			t.Errorf("%s: one Write of %d bytes; the writer flushes at %d", name, got.max, csvFlushAt)
		}
		if name == "every type, flushing" && (got.Len() < 4*csvFlushAt || got.max < csvFlushAt) {
			t.Errorf("%s: %d bytes, largest Write %d: the flush path did not run", name, got.Len(), got.max)
		}
	}
}

// failingWriter fails every Write after the first ok ones.
type failingWriter struct{ ok int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.ok == 0 {
		return 0, io.ErrClosedPipe
	}
	w.ok--
	return len(p), nil
}

func TestWriteCSVReturnsWriteError(t *testing.T) {
	tb := allTypesTable(t, 20000)
	for ok := 0; ok < 3; ok++ {
		if err := WriteCSV(tb, &failingWriter{ok: ok}); err != io.ErrClosedPipe {
			t.Fatalf("after %d good writes: err = %v, want %v", ok, err, io.ErrClosedPipe)
		}
	}
}

// FuzzWriteCSV writes a two-row table of every type — fuzzed string bytes
// (raw and dictionary-encoded, and as a column name), float bits and
// integers — and compares the bytes with the reference writer's.
func FuzzWriteCSV(f *testing.F) {
	f.Add("plain", `"q",`, "name", math.Float64bits(0.5), int64(7), true)
	f.Add(" lead", "\u0085", `\.`, math.Float64bits(math.NaN()), int64(math.MinInt64), false)
	f.Add("", "\r\n", "", math.Float64bits(math.Copysign(0, -1)), int64(-1), true)
	f.Add("\xff", " x", " ", math.Float64bits(5e-324), int64(math.MaxInt64), false)
	f.Fuzz(func(t *testing.T, s1, s2, name string, fbits uint64, iv int64, bv bool) {
		v := math.Float64frombits(fbits)
		tb, err := NewTable("f",
			NewInt("i", []int64{iv, -iv}),
			NewFloat("f", []float64{v, -v}),
			NewString("raw", []string{s1, s2}),
			DictEncode(NewString("dict", []string{s2, s1})),
			NewBool("b", []bool{bv, !bv}),
			NewString(name+"\x00", []string{name, s1 + s2}))
		if err != nil {
			t.Skip(err) // the fuzzed name collides with a fixed one
		}
		var want, got bytes.Buffer
		if err := refWriteCSV(tb, &want); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(tb, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteCSV wrote\n%q\nreference wrote\n%q", got.Bytes(), want.Bytes())
		}
	})
}

// FuzzReadCSVChunked reads arbitrary bytes with ReadCSV and with
// ReadCSVChunked at a fuzzed chunk size. Neither may panic, and when both
// accept the input they must agree on the schema and on every value. Only
// ReadCSVChunked accepts an empty numeric or boolean field (a null that
// decodes to the zero value), so the two may differ in what they accept.
func FuzzReadCSVChunked(f *testing.F) {
	f.Add([]byte("id,score,grp,flag\n1,0.5,north,true\n2,1e21,\"a,b\",false\n3,NaN,north,x\n"), uint8(1))
	f.Add([]byte(" a ,b\n\"x\ny\",-0\n"), uint8(0))
	// Headers only: Decode of the chunkless table once dropped the schema.
	f.Add([]byte("a,b\n"), uint8(3))
	f.Add([]byte("a\n\n1\n"), uint8(2))
	f.Fuzz(func(t *testing.T, in []byte, chunk uint8) {
		want, err := ReadCSV("t", bytes.NewReader(in))
		ct, errC := ReadCSVChunked("t", bytes.NewReader(in), 1+int(chunk%8))
		if err != nil || errC != nil {
			return
		}
		got, err := ct.Decode()
		if err != nil {
			return
		}
		if len(ct.Schema()) != want.NumCols() || got.NumCols() != want.NumCols() || got.NumRows() != want.NumRows() {
			t.Fatalf("ReadCSV: %d cols × %d rows; ReadCSVChunked: schema %d, %d cols × %d rows",
				want.NumCols(), want.NumRows(), len(ct.Schema()), got.NumCols(), got.NumRows())
		}
		for j, wc := range want.Cols {
			gc := got.Cols[j]
			if f := ct.Schema()[j]; f.Name != wc.Name || f.Type != wc.Type || gc.Name != wc.Name || gc.Type != wc.Type {
				t.Fatalf("column %d: ReadCSV %q %v, chunked schema %q %v, decoded %q %v",
					j, wc.Name, wc.Type, f.Name, f.Type, gc.Name, gc.Type)
			}
			for i := 0; i < wc.Len(); i++ {
				same := wc.AsString(i) == gc.AsString(i)
				if wc.Type == Float64 {
					same = math.Float64bits(wc.F64[i]) == math.Float64bits(gc.F64[i])
				}
				if !same {
					t.Fatalf("column %q row %d: ReadCSV %q, ReadCSVChunked %q", wc.Name, i, wc.AsString(i), gc.AsString(i))
				}
			}
		}
	})
}

// TestWriteCSVAllocs pins WriteCSV's allocations to a constant: writing
// 1k rows and 100k rows allocates the same, so nothing is allocated per
// value or per row. (Its buffer is recycled, so the constant is 0; the
// race detector's sync.Pool drops a Put now and then, which the integer
// average of AllocsPerRun rounds away.)
func TestWriteCSVAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 100k rows")
	}
	small, large := benchCSVTable(1000), benchCSVTable(100000)
	aSmall := testing.AllocsPerRun(10, func() { _ = WriteCSV(small, io.Discard) })
	aLarge := testing.AllocsPerRun(10, func() { _ = WriteCSV(large, io.Discard) })
	if aSmall != aLarge || aLarge > 1 {
		t.Fatalf("WriteCSV allocations: %v for 1k rows, %v for 100k rows; want the same constant ≤ 1", aSmall, aLarge)
	}
}

// benchCSVTable is n rows of (int64, float64, dictionary string, bool).
func benchCSVTable(n int) *Table {
	iv := make([]int64, n)
	f := make([]float64, n)
	s := make([]string, n)
	b := make([]bool, n)
	groups := []string{"north", "south", "east", "west, far"}
	for r := range n {
		iv[r] = int64(r) * 7919
		f[r] = 1 / (1 + math.Exp(-float64(r%1000)/250+2))
		s[r] = groups[r%len(groups)]
		b[r] = r%2 == 0
	}
	return MustNewTable("bench", NewInt("id", iv), NewFloat("score", f),
		DictEncode(NewString("grp", s)), NewBool("flag", b))
}

// BenchmarkWriteCSV writes a 100k-row (int64, float64, dictionary string,
// bool) table to io.Discard with WriteCSV and with the reference writer
// it replaced.
func BenchmarkWriteCSV(b *testing.B) {
	tb := benchCSVTable(100000)
	for _, w := range []struct {
		name  string
		write func(*Table, io.Writer) error
	}{{"typed", WriteCSV}, {"reference", refWriteCSV}} {
		b.Run("writer="+w.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := w.write(tb, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAsStringMatchesFmt pins AsString's number rendering to fmt's "%d"
// and "%g", the spellings results have always carried.
func TestAsStringMatchesFmt(t *testing.T) {
	for _, v := range []int64{math.MinInt64, math.MaxInt64, 0, -1, 42} {
		if got, want := NewInt("i", []int64{v}).AsString(0), fmt.Sprintf("%d", v); got != want {
			t.Errorf("AsString(int64 %d) = %q, want %q", v, got, want)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e21, 1e20, 1e-7, 1e-5, 5e-324, 0.1 + 0.2, math.MaxFloat64} {
		if got, want := NewFloat("f", []float64{v}).AsString(0), fmt.Sprintf("%g", v); got != want {
			t.Errorf("AsString(float64 %v) = %q, want %q", v, got, want)
		}
	}
}
