package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// ReadCSV loads a table from CSV with a header row. Column types are
// inferred from the first data row: values parsing as integers become
// Int64, as floats become Float64, "true"/"false" become Bool, anything
// else String. String columns are dictionary-encoded at load, so every
// downstream consumer sees the integer-coded representation.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = false
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("data: csv header: %w", err)
	}
	var rows [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: csv row: %w", err)
		}
		rows = append(rows, rec)
	}
	types := make([]Type, len(header))
	for j := range header {
		types[j] = String
		if len(rows) > 0 {
			types[j] = inferType(rows[0][j])
		}
	}
	cols := make([]*Column, len(header))
	for j, h := range header {
		c := &Column{Name: strings.TrimSpace(h), Type: types[j]}
		for i, rec := range rows {
			v := rec[j]
			switch types[j] {
			case Int64:
				x, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("data: csv %s row %d: %w", h, i, err)
				}
				c.I64 = append(c.I64, x)
			case Float64:
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("data: csv %s row %d: %w", h, i, err)
				}
				c.F64 = append(c.F64, x)
			case Bool:
				c.B = append(c.B, v == "true")
			default:
				c.Str = append(c.Str, v)
			}
		}
		cols[j] = DictEncode(c)
	}
	return NewTable(name, cols...)
}

// ReadCSVChunked streams a CSV with a header row into compressed chunked
// column storage without ever materializing the whole table: records are
// buffered chunkRows at a time (<= 0 selects DefaultChunkRows) and each
// full buffer is encoded into one Chunk. Types are inferred from the
// first data row exactly like ReadCSV. String columns are dictionary
// encoded with first-occurrence code assignment — the builder appends
// codes while streaming, blocks pack their codes at the block's own
// width, and the shared *Dictionary is frozen at EOF and patched into
// every block's metadata, so all chunks of a column decode over one
// dictionary. Unlike ReadCSV, an empty field in a numeric or boolean
// column is a null: the block's validity bitmap marks it absent and it
// decodes to the type's zero value.
func ReadCSVChunked(name string, r io.Reader, chunkRows int) (*ChunkedTable, error) {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	cr := csv.NewReader(r)
	cr.ReuseRecord = false
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("data: csv header: %w", err)
	}
	for j := range header {
		header[j] = strings.TrimSpace(header[j])
	}
	out := &ChunkedTable{Name: name}
	var (
		types []Type
		dicts []*dictBuilder
		buf   [][]string
		base  int
	)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		ch := &Chunk{Rows: len(buf)}
		for j, h := range header {
			blk, err := encodeCSVBlock(h, types[j], buf, j, dicts[j], base)
			if err != nil {
				return err
			}
			ch.Blocks = append(ch.Blocks, blk)
		}
		out.chunks = append(out.chunks, ch)
		out.rows += ch.Rows
		base += ch.Rows
		buf = buf[:0]
		return nil
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: csv row: %w", err)
		}
		if types == nil {
			types = make([]Type, len(header))
			dicts = make([]*dictBuilder, len(header))
			for j := range header {
				types[j] = inferType(rec[j])
				if types[j] == String {
					dicts[j] = &dictBuilder{index: make(map[string]int32)}
				}
			}
		}
		buf = append(buf, rec)
		if len(buf) >= chunkRows {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if types == nil {
		// Headers only: the empty table's schema is all-String, like ReadCSV.
		types = make([]Type, len(header))
		for j := range types {
			types[j] = String
		}
	}
	out.schema = make(Schema, len(header))
	for j, h := range header {
		out.schema[j] = Field{Name: h, Type: types[j]}
	}
	// Freeze the streaming dictionaries and patch the shared pointer into
	// every dict-coded block of the column.
	for j, db := range dicts {
		if db == nil {
			continue
		}
		d := db.freeze()
		for _, ch := range out.chunks {
			ch.Blocks[j].Meta.Dict = d
		}
	}
	return out, nil
}

// dictBuilder assigns dense first-occurrence codes while a column streams
// in; codes are append-only, so blocks encoded before the dictionary is
// frozen stay valid.
type dictBuilder struct {
	vals  []string
	index map[string]int32
}

func (b *dictBuilder) code(v string) int32 {
	if c, ok := b.index[v]; ok {
		return c
	}
	c := int32(len(b.vals))
	b.vals = append(b.vals, v)
	b.index[v] = c
	return c
}

func (b *dictBuilder) freeze() *Dictionary {
	return &Dictionary{vals: b.vals, index: b.index}
}

// encodeCSVBlock parses and encodes column j of one chunk's buffered
// records. base is the chunk's first global row number, for error text.
func encodeCSVBlock(h string, typ Type, recs [][]string, j int, db *dictBuilder, base int) (ColumnBlock, error) {
	n := len(recs)
	var valid []bool
	null := func(i int) {
		if valid == nil {
			valid = make([]bool, n)
			for k := range valid {
				valid[k] = true
			}
		}
		valid[i] = false
	}
	c := &Column{Name: h, Type: typ}
	switch typ {
	case Int64:
		c.I64 = make([]int64, n)
		for i, rec := range recs {
			v := rec[j]
			if v == "" {
				null(i)
				continue
			}
			x, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return ColumnBlock{}, fmt.Errorf("data: csv %s row %d: %w", h, base+i, err)
			}
			c.I64[i] = x
		}
	case Float64:
		c.F64 = make([]float64, n)
		for i, rec := range recs {
			v := rec[j]
			if v == "" {
				null(i)
				continue
			}
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return ColumnBlock{}, fmt.Errorf("data: csv %s row %d: %w", h, base+i, err)
			}
			c.F64[i] = x
		}
	case Bool:
		c.B = make([]bool, n)
		for i, rec := range recs {
			if rec[j] == "" {
				null(i)
				continue
			}
			c.B[i] = rec[j] == "true"
		}
	default:
		// Dict codes are packed directly: the dictionary is still growing,
		// so EncodeColumn (which wants a frozen *Dictionary) does not apply.
		codes := make([]int32, n)
		for i, rec := range recs {
			codes[i] = db.code(rec[j])
		}
		m := BlockMeta{Name: h, Type: String, Rows: n, Enc: EncDictCodes}
		var raw []byte
		m.Width, raw = packCodes(codes)
		return ColumnBlock{Meta: m, Data: raw}, nil
	}
	m, raw, err := EncodeColumn(c)
	if err != nil {
		return ColumnBlock{}, err
	}
	if valid != nil {
		m.Valid = PackBits(valid)
	}
	return ColumnBlock{Meta: m, Data: raw}, nil
}

// ReadCSVFile loads a table from a CSV file; the table is named after the
// file's base name without extension.
func ReadCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return ReadCSV(base, f)
}

// csvFlushAt is the buffered size at which WriteCSV hands its bytes to
// the writer, so memory stays bounded and a served result streams. A
// buffer's capacity leaves csvFlushAt/8 more, so a row shorter than that
// never regrows it.
const csvFlushAt = 64 << 10

// csvBufs recycles WriteCSV's buffers across calls, so a result costs no
// allocation however many rows it has.
var csvBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, csvFlushAt+csvFlushAt/8)
	return &b
}}

// WriteCSV writes the table as CSV with a header row: the bytes
// encoding/csv writes for AsString of every value (see "CSV output" in
// the package comment), appended value by value into one reused buffer
// without a string per value.
func WriteCSV(t *Table, w io.Writer) error {
	bp := csvBufs.Get().(*[]byte)
	buf, err := appendCSVTable((*bp)[:0], t, w)
	if cap(buf) <= csvFlushAt+csvFlushAt/8 {
		*bp = buf
		csvBufs.Put(bp)
	}
	return err
}

// appendCSVTable writes t through buf, handing buf to w whenever it holds
// csvFlushAt bytes and once at the end, and returns buf for reuse.
func appendCSVTable(buf []byte, t *Table, w io.Writer) ([]byte, error) {
	for j, c := range t.Cols {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = appendCSVField(buf, c.Name)
	}
	buf = append(buf, '\n')
	n := t.NumRows()
	for i := 0; i < n; i++ {
		for j, c := range t.Cols {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = c.appendCSV(buf, i)
		}
		buf = append(buf, '\n')
		if len(buf) >= csvFlushAt {
			if _, err := w.Write(buf); err != nil {
				return buf, err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return buf, err
}

// appendCSV appends the CSV field of row i: AsString's text, quoted where
// encoding/csv would quote it.
func (c *Column) appendCSV(b []byte, i int) []byte {
	switch c.Type {
	case Float64:
		return strconv.AppendFloat(b, c.F64[i], 'g', -1, 64)
	case Int64:
		return strconv.AppendInt(b, c.I64[i], 10)
	case String:
		if c.Dict != nil {
			return appendCSVField(b, c.Dict.vals[c.Codes[i]])
		}
		return appendCSVField(b, c.Str[i])
	case Bool:
		if c.B[i] {
			return append(b, "true"...)
		}
		return append(b, "false"...)
	}
	return b
}

// appendCSVField appends s as one CSV field, quoted exactly where
// encoding/csv's Writer (comma ',', LF line ends) quotes it: never when
// empty, always for `\.`, for any comma, quote, CR or LF, and when the
// first rune is a Unicode space. A quoted field doubles its quotes.
func appendCSVField(b []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(b, s...)
	}
	b = append(b, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		b = append(b, s[:i+1]...)
		b = append(b, '"')
		s = s[i+1:]
	}
	b = append(b, s...)
	return append(b, '"')
}

func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

func inferType(v string) Type {
	if v == "true" || v == "false" {
		return Bool
	}
	if _, err := strconv.ParseInt(v, 10, 64); err == nil {
		return Int64
	}
	if _, err := strconv.ParseFloat(v, 64); err == nil {
		return Float64
	}
	return String
}
