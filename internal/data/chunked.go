package data

import (
	"fmt"
	"sort"
	"sync"
)

// Chunked compressed column storage: a ChunkedTable holds its rows as a
// sequence of independently encoded chunks (encode.go), so consumers
// decode one chunk's worth of the columns they actually read instead of
// materializing the whole table — the out-of-core counterpart of Table.
// ReadCSVChunked (csv.go) streams a CSV into this form without ever
// holding the decoded table; the relational spill files reuse the same
// block encoding for breaker state that exceeds the query memory budget.

// ColumnBlock is one encoded column of one chunk.
type ColumnBlock struct {
	Meta BlockMeta
	Data []byte
}

// Chunk is a horizontal slice of a chunked table: one encoded block per
// column, all covering the same row range.
type Chunk struct {
	Rows   int
	Blocks []ColumnBlock
}

// Decode materializes the named columns of the chunk, in the order named
// (nil names = every column), as an in-memory table. Only the requested
// blocks are decoded.
func (ch *Chunk) Decode(name string, names []string) (*Table, error) {
	if names == nil {
		return ch.decode(name, nil, nil, nil)
	}
	idx := make([]int, len(names))
	for j, n := range names {
		idx[j] = -1
		for i := range ch.Blocks {
			if ch.Blocks[i].Meta.Name == n {
				idx[j] = i
				break
			}
		}
		if idx[j] < 0 {
			return nil, fmt.Errorf("data: chunk of %q has no column %q", name, n)
		}
	}
	return ch.decode(name, idx, nil, nil)
}

// decode materializes the blocks at the given indexes, in that order (nil
// = every block): every row when pos is nil, otherwise only the rows at
// pos (DecodeColumnAt). When every row is wanted, a block whose entry in
// have (indexed by block; nil = none) holds its decoded column is taken
// from there instead of being decoded again.
func (ch *Chunk) decode(name string, idx []int, pos []int32, have []*Column) (*Table, error) {
	t, err := NewTable(name)
	if err != nil {
		return nil, err
	}
	n := len(idx)
	if idx == nil {
		n = len(ch.Blocks)
	}
	for j := 0; j < n; j++ {
		bi := j
		if idx != nil {
			bi = idx[j]
		}
		var c *Column
		if pos == nil && have != nil {
			c = have[bi]
		}
		if c == nil {
			blk := &ch.Blocks[bi]
			if pos == nil {
				c, err = DecodeColumn(blk.Meta, blk.Data)
			} else {
				c, err = DecodeColumnAt(blk.Meta, blk.Data, pos)
			}
			if err != nil {
				return nil, err
			}
		}
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// CompressedBytes is the encoded payload size of the chunk.
func (ch *Chunk) CompressedBytes() int64 {
	var n int64
	for _, blk := range ch.Blocks {
		n += int64(len(blk.Data)) + int64(len(blk.Meta.Valid))
	}
	return n
}

// ChunkedTable is a table stored as encoded chunks.
type ChunkedTable struct {
	Name   string
	schema Schema
	chunks []*Chunk
	rows   int

	offsetsOnce sync.Once
	starts      []int
}

// NumRows returns the total row count across chunks.
func (ct *ChunkedTable) NumRows() int { return ct.rows }

// NumChunks returns the chunk count.
func (ct *ChunkedTable) NumChunks() int { return len(ct.chunks) }

// Chunk returns chunk i.
func (ct *ChunkedTable) Chunk(i int) *Chunk { return ct.chunks[i] }

// Schema returns the table schema.
func (ct *ChunkedTable) Schema() Schema { return ct.schema }

// CompressedBytes is the encoded payload size across all chunks.
func (ct *ChunkedTable) CompressedBytes() int64 {
	var n int64
	for _, ch := range ct.chunks {
		n += ch.CompressedBytes()
	}
	return n
}

// Decode materializes the whole chunked table (tests and small tables;
// scanning code should use Reader instead).
func (ct *ChunkedTable) Decode() (*Table, error) {
	r := ct.Reader(nil)
	var out *Table
	for {
		b, err := r.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if out == nil {
			out = b
			continue
		}
		if err := out.AppendFrom(b); err != nil {
			return nil, err
		}
	}
	if out == nil {
		return emptyWithSchema(ct.Name, ct.schema), nil
	}
	return out, nil
}

// rowOffsets returns the cumulative row offsets of the chunks: starts[i]
// is the first row of chunk i and starts[len(chunks)] == NumRows. Computed
// once; safe for concurrent readers because chunked tables are immutable
// after Finish.
func (ct *ChunkedTable) rowOffsets() []int {
	ct.offsetsOnce.Do(func() {
		ct.starts = make([]int, len(ct.chunks)+1)
		for i, ch := range ct.chunks {
			ct.starts[i+1] = ct.starts[i] + ch.Rows
		}
	})
	return ct.starts
}

// ChunkCache memoizes the most recently decoded chunk for one sequential
// consumer, so a walk forward decodes each chunk once, and counts the
// decodes it could not avoid. Under a view with a row filter it holds the
// chunk's selection too: the selected rows, decoded, and their positions.
// It is not safe for concurrent use: parallel consumers each hold their
// own cache, and a cache must always be used with the same view.
type ChunkCache struct {
	idx     int
	t       *Table  // the decoded chunk, or its selected rows; nil when none are
	sel     []int32 // positions of t's rows within the chunk; nil = every row
	decodes int
}

// NewChunkCache returns an empty cache.
func NewChunkCache() *ChunkCache { return &ChunkCache{idx: -1} }

// Decodes returns how many chunks were decoded through the cache.
func (c *ChunkCache) Decodes() int { return c.decodes }

// RowFilter narrows a view from live chunks to the rows within them that
// a scan keeps. Cols are the columns Select reads; they are decoded in
// full once per chunk, and Select returns the ascending positions of the
// chunk's rows to keep. Only those rows of the view's columns are decoded.
type RowFilter struct {
	Cols   []string
	Select func(pred *Table) ([]int32, error)
}

// ChunkView is one scan's fixed reading plan over a chunked table: the
// projected columns, resolved to block indexes once, the chunks the
// scan's zone predicates left live and, optionally, the row filter
// selecting rows within them. It is immutable, so the workers of a
// parallel scan share one view and each bring their own ChunkCache.
type ChunkView struct {
	ct     *ChunkedTable
	idx    []int  // block index per output column; nil = every block
	live   []bool // per chunk; nil = every chunk
	filter *RowFilter
	where  []int // block index per filter column
}

// View resolves cols (nil = all, otherwise decoded in the order given)
// against the table's schema. live, when non-nil, has one entry per chunk:
// rows of a chunk marked false are never decoded or returned. filter, when
// non-nil, further keeps only the rows it selects within live chunks.
func (ct *ChunkedTable) View(cols []string, live []bool, filter *RowFilter) (*ChunkView, error) {
	if live != nil && len(live) != len(ct.chunks) {
		return nil, fmt.Errorf("data: %d liveness entries for the %d chunks of %q", len(live), len(ct.chunks), ct.Name)
	}
	v := &ChunkView{ct: ct, live: live, filter: filter}
	var err error
	if cols != nil {
		if v.idx, err = ct.blockIndexes(cols); err != nil {
			return nil, err
		}
	}
	if filter != nil {
		if v.where, err = ct.blockIndexes(filter.Cols); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// blockIndexes resolves column names to block indexes.
func (ct *ChunkedTable) blockIndexes(cols []string) ([]int, error) {
	idx := make([]int, len(cols))
	for j, n := range cols {
		if idx[j] = ct.schema.Index(n); idx[j] < 0 {
			return nil, fmt.Errorf("data: chunked table %q has no column %q", ct.Name, n)
		}
	}
	return idx, nil
}

// decodeChunk returns chunk i as the view reads it — every row, or under
// a row filter the selected rows and their positions (nil = every row) —
// through the cache when it holds chunk i. A selection of every row
// decodes the chunk as an unfiltered view does; an empty one decodes
// nothing more.
func (v *ChunkView) decodeChunk(i int, cache *ChunkCache) (*Table, []int32, error) {
	if cache != nil && cache.idx == i {
		return cache.t, cache.sel, nil
	}
	ch := v.ct.chunks[i]
	var sel []int32
	var have []*Column
	if v.filter != nil {
		pred, err := ch.decode(v.ct.Name, v.where, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		if sel, err = v.filter.Select(pred); err != nil {
			return nil, nil, err
		}
		if len(sel) == ch.Rows {
			sel = nil
			have = make([]*Column, len(ch.Blocks))
			for k, bi := range v.where {
				have[bi] = pred.Cols[k]
			}
		} else if sel == nil {
			sel = []int32{}
		}
	}
	var dec *Table
	if sel == nil || len(sel) > 0 {
		var err error
		if dec, err = ch.decode(v.ct.Name, v.idx, sel, have); err != nil {
			return nil, nil, err
		}
	}
	if cache != nil {
		cache.idx, cache.t, cache.sel = i, dec, sel
		cache.decodes++
	}
	return dec, sel, nil
}

// ChunkOf returns the index of the chunk holding the given row.
func (ct *ChunkedTable) ChunkOf(row int) int {
	return sort.SearchInts(ct.rowOffsets(), row+1) - 1
}

// Range materializes the rows of [lo, hi) that lie in live chunks and
// pass the row filter, or nil when there are none. Rows from a single
// chunk come back as a zero-copy slice of the decoded chunk (or of its
// decoded selection) — the common case when batch size and chunk size are
// of the same order; rows from several chunks are copied together.
// Decoded string columns keep the chunked table's shared *Dictionary
// pointers, so every dict fast path downstream survives out-of-core
// storage.
func (v *ChunkView) Range(lo, hi int, cache *ChunkCache) (*Table, error) {
	ct := v.ct
	if lo < 0 || hi > ct.rows || lo > hi {
		return nil, fmt.Errorf("data: decode range [%d,%d) of %q with %d rows", lo, hi, ct.Name, ct.rows)
	}
	if lo == hi {
		return nil, nil
	}
	starts := ct.rowOffsets()
	var out *Table
	copied := false
	for ci := ct.ChunkOf(lo); ci < len(ct.chunks) && starts[ci] < hi; ci++ {
		if v.live != nil && !v.live[ci] {
			continue
		}
		dec, sel, err := v.decodeChunk(ci, cache)
		if err != nil {
			return nil, err
		}
		clo, chi := starts[ci], starts[ci+1]
		a, b := max(lo, clo)-clo, min(hi, chi)-clo
		if sel != nil {
			// The selected rows of [a, b) are a run of the selection.
			a, b = searchPos(sel, a), searchPos(sel, b)
			if a == b {
				continue
			}
		}
		part := dec.Slice(a, b)
		if out == nil {
			out = part
			continue
		}
		if !copied {
			// Clone before appending: out is a view of a decoded chunk
			// (possibly cached), and appending through a view could write
			// into the chunk's backing arrays.
			out, copied = out.Clone(), true
		}
		if err := out.AppendFrom(part); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// searchPos returns the index of the first position in sel at or after
// row.
func searchPos(sel []int32, row int) int {
	return sort.Search(len(sel), func(i int) bool { return int(sel[i]) >= row })
}

// LiveRows counts the rows of [lo, hi) that lie in live chunks: the rows
// a scan reads, whether or not the row filter keeps them, since the
// filter's columns are decoded in full.
func (v *ChunkView) LiveRows(lo, hi int) int {
	starts := v.ct.rowOffsets()
	n := 0
	for ci := v.ct.ChunkOf(lo); ci < len(v.ct.chunks) && starts[ci] < hi; ci++ {
		if v.live == nil || v.live[ci] {
			n += min(hi, starts[ci+1]) - max(lo, starts[ci])
		}
	}
	return n
}

// DecodeRange materializes rows [lo, hi) of the named columns (nil = all):
// View + Range for a caller without zone predicates. An empty range
// returns a zero-row table of the full schema.
func (ct *ChunkedTable) DecodeRange(lo, hi int, cols []string, cache *ChunkCache) (*Table, error) {
	v, err := ct.View(cols, nil, nil)
	if err != nil {
		return nil, err
	}
	t, err := v.Range(lo, hi, cache)
	if t == nil && err == nil {
		t = emptyWithSchema(ct.Name, ct.schema)
	}
	return t, err
}

// Reader returns a chunk reader over the named columns (nil = all): each
// Next decodes exactly one chunk's requested blocks, so a morsel-at-a-time
// consumer never holds more than one decoded chunk.
func (ct *ChunkedTable) Reader(cols []string) *ChunkReader {
	return &ChunkReader{ct: ct, cols: cols}
}

// ChunkReader iterates a ChunkedTable one decoded chunk at a time.
type ChunkReader struct {
	ct   *ChunkedTable
	cols []string
	next int
}

// Next decodes and returns the next chunk, or nil at the end.
func (r *ChunkReader) Next() (*Table, error) {
	if r.next >= len(r.ct.chunks) {
		return nil, nil
	}
	ch := r.ct.chunks[r.next]
	r.next++
	return ch.Decode(r.ct.Name, r.cols)
}

// DefaultChunkRows is the chunk size ChunkedBuilder uses when none is
// given: big enough to amortize per-block metadata, small enough that one
// decoded chunk stays morsel-sized.
const DefaultChunkRows = 8192

// ChunkedBuilder accumulates rows and cuts encoded chunks of a fixed row
// count. Append order is preserved exactly.
type ChunkedBuilder struct {
	name      string
	chunkRows int

	pending *Table
	out     *ChunkedTable
}

// NewChunkedBuilder returns a builder cutting chunks of chunkRows rows
// (<= 0 selects DefaultChunkRows).
func NewChunkedBuilder(name string, chunkRows int) *ChunkedBuilder {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	return &ChunkedBuilder{name: name, chunkRows: chunkRows, out: &ChunkedTable{Name: name}}
}

// Append adds the table's rows to the builder, cutting full chunks as
// they fill.
func (b *ChunkedBuilder) Append(t *Table) error {
	if b.pending == nil {
		b.pending = t.Clone()
	} else if err := b.pending.AppendFrom(t); err != nil {
		return err
	}
	for b.pending.NumRows() >= b.chunkRows {
		if err := b.cut(b.pending.Slice(0, b.chunkRows)); err != nil {
			return err
		}
		rest := b.pending.Slice(b.chunkRows, b.pending.NumRows())
		b.pending = rest.Clone()
	}
	return nil
}

// cut encodes one full slice as a chunk.
func (b *ChunkedBuilder) cut(t *Table) error {
	if b.out.schema == nil {
		b.out.schema = t.Schema()
	}
	ch := &Chunk{Rows: t.NumRows()}
	for _, c := range t.Cols {
		m, raw, err := EncodeColumn(c)
		if err != nil {
			return err
		}
		ch.Blocks = append(ch.Blocks, ColumnBlock{Meta: m, Data: raw})
	}
	b.out.chunks = append(b.out.chunks, ch)
	b.out.rows += ch.Rows
	return nil
}

// Finish flushes the partial tail chunk and returns the chunked table.
func (b *ChunkedBuilder) Finish() (*ChunkedTable, error) {
	if b.pending != nil && b.pending.NumRows() > 0 {
		if err := b.cut(b.pending); err != nil {
			return nil, err
		}
	}
	if b.pending != nil && b.out.schema == nil {
		b.out.schema = b.pending.Schema()
	}
	b.pending = nil
	return b.out, nil
}
