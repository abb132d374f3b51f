// Package data implements the columnar storage substrate: in-memory
// columnar tables with schemas, per-column min/max statistics (zone
// maps), hash partitioning, CSV I/O and replication utilities used to
// scale datasets. It stands in for the Parquet/columnstore layer of the
// paper.
//
// # String representations
//
// String columns have two physical representations: raw ([]string) and
// dictionary-encoded (a shared *Dictionary of distinct values plus an
// []int32 code vector, see dict.go). Encoding happens once at CSV load /
// datagen time; Slice, Gather, Filter, Clone and partitioning preserve
// the dictionary (pointer equality identifies "same dictionary", which
// per-dictionary caches key on), and appends across mismatched
// dictionaries fall back to raw strings. Every accessor works identically
// on both representations, so operators only opt into the integer-shaped
// fast paths when a dictionary is present and fall back to raw strings
// otherwise: hash joins index dictionary codes in an array (no hashing),
// string equality and IN predicates compare codes after one dictionary
// probe, one-hot and label encoders use a per-(session, dictionary)
// code→category table. New code must keep this invariant: never reach
// into Col.Str on a path that can see catalog data — use AsString or a
// dict-aware kernel.
//
// # Chunked storage
//
// For working sets larger than memory, EncodeColumn/DecodeColumn turn
// one column into a compact (BlockMeta, payload) block:
// frame-of-reference bit-packed integers (a constant column packs to
// width 0 with an empty payload), dict codes, packed bools, raw
// float bits, length-prefixed strings, plus an optional null bitmap.
// Bit-packed values move one 64-bit word at a time: each is ORed into,
// and read back from, the little-endian window at its first byte, and
// decoding writes straight into the column's []int64 or []int32 — so a
// block decodes at memory speed and any row of it is at a computable
// offset. DecodeColumnAt uses that offset to decode only given rows: one
// 64-bit window per bit-packed value, one load per float, one bit per
// bool; raw strings walk every length prefix but allocate only the rows
// asked for. DecodeColumn and DecodeColumnAt share one body, so both
// validate every block (row count, width, payload and null-bitmap
// lengths) first — an inconsistent block is an error, not a panic — and
// apply the null bitmap alike. BlockMeta keeps the live *Dictionary
// pointer — metadata never hits disk — so decoded columns share the
// original dictionary by pointer identity and stay on every dict fast
// path. ChunkedTable/ChunkedBuilder/ChunkReader store tables as per-chunk
// encoded blocks. A ChunkView is one scan's reading plan over them — the
// projection resolved to block indexes once, the chunks its zone
// predicates left live and, optionally, a RowFilter — and its Range
// decodes an arbitrary row range of the live chunks through the caller's
// one-chunk ChunkCache — a zero-copy Slice when it falls inside one
// chunk, Clone plus AppendFrom when it spans chunks (the Clone is
// load-bearing: a slice shares the cached chunk's arrays, and appending
// into it would write through the cache); DecodeRange is the same without
// zone predicates. Under a RowFilter the cache decodes a chunk's filter
// columns in full, asks the filter for the ascending positions of the
// rows it keeps, and decodes only those rows of the projected columns
// (DecodeColumnAt); Range then returns the kept rows of the range, still
// zero-copy within one chunk. A selection of every row decodes the chunk
// as an unfiltered view does, reusing the filter columns, and an empty one
// decodes and returns nothing. ChunkPartitioned wraps a ChunkedTable as a chunk-backed
// Partition so catalog scans decode on demand instead of holding tables
// resident, and keeps one zone map per chunk (Partition.ChunkStats) beside
// the merged partition statistics, computed by streaming one chunk at a
// time so statistics never materialize the table either; GlobalStats
// merges the partitions' statistics once per table and shares the result
// read-only. ColStats.HasNaN records NaN presence, which min/max cannot
// express. ReadCSVChunked streams a CSV file straight
// into chunks without materializing the table — its dictionaries are
// frozen at end of file and patched into every chunk; empty numeric/bool
// fields become nulls (decoded as zero values).
//
// # CSV output
//
// WriteCSV writes a header row of column names, then one row per table
// row, fields separated by commas and lines ended by LF alone. An
// integer is its decimal digits; a float is the shortest 'g' form that
// parses back to the same bits (strconv.AppendFloat(b, v, 'g', -1, 64),
// the bytes of fmt's "%g"), so 1e+21, 1e-07, -0, 5e-324, +Inf, -Inf and
// NaN are spelled so; a bool is true or false. Strings (names, raw and
// dictionary values) are copied verbatim and quoted exactly where
// encoding/csv's Writer would quote them: never when empty, always when
// the field is `\.`, when it holds a comma, quote, CR or LF, or when its
// first rune is a Unicode space (U+00A0 and U+0085 included); a quoted
// field doubles its quotes and keeps CR and LF as they are. The bytes
// are appended into one buffer recycled across calls and handed to the
// writer each time it holds 64 KiB and once at the end, so memory stays
// bounded, a served result streams, and a write error ends the call with
// that error.
//
// Decoding is exact: integers, bools, dict codes and float bit patterns
// round-trip unchanged, which is what lets chunk-backed scans satisfy
// the engine-wide byte-identity contract (see internal/relational).
package data
