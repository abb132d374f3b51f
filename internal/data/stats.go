package data

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// ColStats holds zone-map style statistics for one column: min/max for
// numeric columns and the distinct value set (capped) for categoricals.
// These power the data-induced optimizations (§4.2 of the paper) and
// partition pruning.
type ColStats struct {
	Name string
	Type Type
	// Min and Max are valid for Float64/Int64/Bool columns.
	Min, Max float64
	// Distinct holds up to MaxDistinctTracked distinct values for String
	// columns (sorted); DistinctOverflow is set when the cap was hit.
	Distinct         []string
	DistinctOverflow bool
	Rows             int
	// HasNaN is set when a Float64 column holds a NaN. Min and Max ignore
	// NaNs (they compare false against everything), while the engine's
	// comparisons do not treat NaN as unordered — so a zone that contains
	// one may never be pruned from its range.
	HasNaN bool
}

// MaxDistinctTracked caps the categorical distinct set kept in stats.
const MaxDistinctTracked = 256

// HasRange reports whether min/max are meaningful for this column.
func (s *ColStats) HasRange() bool {
	return s.Type != String && s.Rows > 0
}

// ComputeColStats scans a column and returns its statistics.
func ComputeColStats(c *Column) *ColStats {
	s := &ColStats{Name: c.Name, Type: c.Type, Rows: c.Len()}
	switch c.Type {
	case Float64:
		s.Min, s.Max = math.Inf(1), math.Inf(-1)
		for _, v := range c.F64 {
			if v < s.Min {
				s.Min = v
			}
			if v > s.Max {
				s.Max = v
			}
			if v != v {
				s.HasNaN = true
			}
		}
	case Int64:
		s.Min, s.Max = math.Inf(1), math.Inf(-1)
		for _, v := range c.I64 {
			f := float64(v)
			if f < s.Min {
				s.Min = f
			}
			if f > s.Max {
				s.Max = f
			}
		}
	case Bool:
		s.Min, s.Max = math.Inf(1), math.Inf(-1)
		for _, v := range c.B {
			f := 0.0
			if v {
				f = 1
			}
			if f < s.Min {
				s.Min = f
			}
			if f > s.Max {
				s.Max = f
			}
		}
	case String:
		if c.Dict != nil {
			// Same first-appearance cap-and-overflow semantics as the raw
			// path, but tracking a code bitmap instead of hashing strings.
			seen := make([]bool, c.Dict.Len())
			count := 0
			for _, code := range c.Codes {
				if count >= MaxDistinctTracked {
					if !seen[code] {
						s.DistinctOverflow = true
						break
					}
					continue
				}
				if !seen[code] {
					seen[code] = true
					count++
				}
			}
			s.Distinct = make([]string, 0, count)
			for code, ok := range seen {
				if ok {
					s.Distinct = append(s.Distinct, c.Dict.Value(int32(code)))
				}
			}
			sort.Strings(s.Distinct)
			break
		}
		seen := make(map[string]bool)
		for _, v := range c.Str {
			if len(seen) >= MaxDistinctTracked {
				if !seen[v] {
					s.DistinctOverflow = true
					break
				}
				continue
			}
			seen[v] = true
		}
		s.Distinct = make([]string, 0, len(seen))
		for v := range seen {
			s.Distinct = append(s.Distinct, v)
		}
		sort.Strings(s.Distinct)
	}
	if s.Rows == 0 && s.Type != String {
		s.Min, s.Max = math.NaN(), math.NaN()
	}
	return s
}

// TableStats maps column name to statistics.
type TableStats map[string]*ColStats

// ComputeTableStats computes statistics for every column of t.
func ComputeTableStats(t *Table) TableStats {
	out := make(TableStats, t.NumCols())
	for _, c := range t.Cols {
		out[c.Name] = ComputeColStats(c)
	}
	return out
}

// Partition is one horizontal slice of a partitioned table along with its
// own zone-map statistics. Exactly one of Table and Chunked is set: Table
// for in-memory partitions, Chunked for partitions served straight from
// encoded chunk storage and decoded on demand.
type Partition struct {
	// Key is the partition's value of the partitioning column ("" for
	// unpartitioned data).
	Key   string
	Table *Table
	// Chunked, when non-nil, backs the partition with a ChunkedTable
	// instead of a decoded Table; scans decode row ranges on demand.
	Chunked *ChunkedTable
	Stats   TableStats
	// ChunkStats, when set, holds one zone map per chunk of Chunked, in
	// chunk order: the same statistics as Stats at the granularity scans
	// decode at, so a scan can leave a chunk encoded when its zone map
	// rules the predicate out. Nil means no chunk can be excluded.
	ChunkStats []TableStats
}

// NumRows returns the partition's row count for either backing store.
func (p *Partition) NumRows() int {
	if p.Chunked != nil {
		return p.Chunked.NumRows()
	}
	return p.Table.NumRows()
}

// materialize returns the partition's rows as an in-memory table, decoding
// chunk-backed partitions.
func (p *Partition) materialize() (*Table, error) {
	if p.Chunked != nil {
		return p.Chunked.Decode()
	}
	return p.Table, nil
}

// PartitionedTable is a table stored as one or more partitions. Engines
// scan partitions independently; the optimizer may compile a specialized
// model per partition (data-induced optimization).
type PartitionedTable struct {
	Name string
	// PartitionColumn is empty when the table is a single partition.
	PartitionColumn string
	Parts           []*Partition
	schema          Schema

	globalOnce sync.Once
	global     TableStats
}

// SinglePartition wraps a table as a one-partition PartitionedTable,
// computing statistics.
func SinglePartition(t *Table) *PartitionedTable {
	return &PartitionedTable{
		Name:   t.Name,
		Parts:  []*Partition{{Table: t, Stats: ComputeTableStats(t)}},
		schema: t.Schema(),
	}
}

// PartitionBy splits t by the distinct values of column col (which must be
// low-cardinality), computing per-partition statistics. This mirrors the
// paper's Hospital experiments partitioned on num_issues / rcount.
func PartitionBy(t *Table, col string) (*PartitionedTable, error) {
	c := t.Col(col)
	if c == nil {
		return nil, errNoColumn(t.Name, col)
	}
	groups := make(map[string][]int)
	var order []string
	n := t.NumRows()
	for i := 0; i < n; i++ {
		k := c.AsString(i)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	sort.Strings(order)
	pt := &PartitionedTable{Name: t.Name, PartitionColumn: col, schema: t.Schema()}
	for _, k := range order {
		part := t.Gather(groups[k])
		pt.Parts = append(pt.Parts, &Partition{Key: k, Table: part, Stats: ComputeTableStats(part)})
	}
	return pt, nil
}

// ChunkPartitioned wraps a chunked table as a one-partition
// PartitionedTable without materializing it. Zone-map statistics are
// computed by streaming one decoded chunk at a time, so peak memory stays
// one chunk regardless of table size; each chunk's own zone map is kept
// (Partition.ChunkStats) and their merge is the partition's.
func ChunkPartitioned(ct *ChunkedTable) (*PartitionedTable, error) {
	stats := make(TableStats)
	perChunk := make([]TableStats, 0, ct.NumChunks())
	r := ct.Reader(nil)
	for {
		b, err := r.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		cs := ComputeTableStats(b)
		perChunk = append(perChunk, cs)
		mergeTableStats(stats, cs)
	}
	return &PartitionedTable{
		Name:   ct.Name,
		Parts:  []*Partition{{Chunked: ct, Stats: stats, ChunkStats: perChunk}},
		schema: ct.Schema(),
	}, nil
}

// ChunkEncode returns a chunk-backed copy of the partitioned table: the
// same partitioning, keys, statistics and schema, with every partition's
// rows encoded into chunks of chunkRows rows (<= 0 selects the default)
// and each chunk's zone map computed from the rows it was cut from.
// Scanning the copy decodes row ranges on demand and produces batches
// representation-identical to scanning the original.
func (p *PartitionedTable) ChunkEncode(chunkRows int) (*PartitionedTable, error) {
	out := &PartitionedTable{Name: p.Name, PartitionColumn: p.PartitionColumn, schema: p.schema}
	for _, part := range p.Parts {
		t, err := part.materialize()
		if err != nil {
			return nil, err
		}
		b := NewChunkedBuilder(p.Name, chunkRows)
		if err := b.Append(t); err != nil {
			return nil, err
		}
		ct, err := b.Finish()
		if err != nil {
			return nil, err
		}
		starts := ct.rowOffsets()
		perChunk := make([]TableStats, ct.NumChunks())
		for i := range perChunk {
			perChunk[i] = ComputeTableStats(t.Slice(starts[i], starts[i+1]))
		}
		out.Parts = append(out.Parts, &Partition{Key: part.Key, Chunked: ct, Stats: part.Stats, ChunkStats: perChunk})
	}
	return out, nil
}

// NumRows returns the total number of rows across partitions.
func (p *PartitionedTable) NumRows() int {
	n := 0
	for _, part := range p.Parts {
		n += part.NumRows()
	}
	return n
}

// Schema returns the table schema.
func (p *PartitionedTable) Schema() Schema { return p.schema }

// GlobalStats merges per-partition statistics into table-level statistics.
// A registered table is immutable, so the merge runs once, at the first
// call, and every call returns that one map: it is shared and read-only —
// callers must not modify it or the *ColStats it holds.
func (p *PartitionedTable) GlobalStats() TableStats {
	p.globalOnce.Do(func() {
		p.global = make(TableStats)
		for _, part := range p.Parts {
			mergeTableStats(p.global, part.Stats)
		}
	})
	return p.global
}

// mergeTableStats folds src into dst, widening ranges and unioning
// distinct sets. Shared by GlobalStats (merging partition stats) and
// ChunkPartitioned (merging streamed per-chunk stats).
func mergeTableStats(dst, src TableStats) {
	for name, s := range src {
		g, ok := dst[name]
		if !ok {
			cp := *s
			cp.Distinct = append([]string(nil), s.Distinct...)
			dst[name] = &cp
			continue
		}
		g.Rows += s.Rows
		g.HasNaN = g.HasNaN || s.HasNaN
		if s.HasRange() {
			if !(g.Min <= s.Min) {
				g.Min = s.Min
			}
			if !(g.Max >= s.Max) {
				g.Max = s.Max
			}
		}
		if s.Type == String {
			g.Distinct = mergeDistinct(g.Distinct, s.Distinct)
			g.DistinctOverflow = g.DistinctOverflow || s.DistinctOverflow ||
				len(g.Distinct) > MaxDistinctTracked
		}
	}
}

// Flatten concatenates all partitions into a single table (copying).
// Zero partitions (a partitioning of an empty table, e.g. an all-false
// filter view) flatten to an empty table with the original schema,
// keeping the same storage-present zero-row shape the all-false
// FilterCount path produces. An append failure (a partition whose schema
// drifted from the first partition's) is propagated: a silently dropped
// partition would corrupt every statistic derived from the flattened
// table with no signal.
func (p *PartitionedTable) Flatten() (*Table, error) {
	if len(p.Parts) == 0 {
		return emptyWithSchema(p.Name, p.schema), nil
	}
	if len(p.Parts) == 1 {
		return p.Parts[0].materialize()
	}
	first, err := p.Parts[0].materialize()
	if err != nil {
		return nil, err
	}
	out := first.Clone()
	for i, part := range p.Parts[1:] {
		t, err := part.materialize()
		if err != nil {
			return nil, err
		}
		if err := out.AppendFrom(t); err != nil {
			return nil, fmt.Errorf("data: flatten %q partition %d: %w", p.Name, i+1, err)
		}
	}
	return out, nil
}

// emptyWithSchema builds a zero-row table with storage present for every
// schema column, matching the all-false FilterCount view shape.
func emptyWithSchema(name string, schema Schema) *Table {
	out := &Table{Name: name, byName: make(map[string]int, len(schema))}
	for _, f := range schema {
		c := &Column{Name: f.Name, Type: f.Type}
		switch f.Type {
		case Float64:
			c.F64 = []float64{}
		case Int64:
			c.I64 = []int64{}
		case String:
			c.Str = []string{}
		case Bool:
			c.B = []bool{}
		}
		_ = out.AddColumn(c)
	}
	return out
}

func mergeDistinct(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		seen[v] = true
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

type errNoCol struct{ table, col string }

func errNoColumn(table, col string) error { return &errNoCol{table, col} }

func (e *errNoCol) Error() string {
	return "data: table " + e.table + " has no column " + e.col
}
