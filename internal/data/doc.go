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
// per-dictionary caches key on), and every accessor works identically on
// both representations, so operators only opt into the integer-shaped
// fast paths (code-indexed joins, predicates, ML encoders) when a
// dictionary is present and fall back to raw strings otherwise. New code
// must keep this invariant: never reach into Col.Str on a path that can
// see catalog data — use AsString or a dict-aware kernel.
//
// # Chunked storage
//
// For working sets larger than memory, EncodeColumn/DecodeColumn turn
// one column into a compact (BlockMeta, payload) block:
// frame-of-reference bit-packed integers, dict codes, packed bools, raw
// float bits, length-prefixed strings, plus an optional null bitmap.
// BlockMeta keeps the live *Dictionary pointer — metadata never hits
// disk — so decoded columns share the original dictionary by pointer
// identity and stay on every dict fast path. ChunkedTable/ChunkedBuilder/
// ChunkReader store tables as per-chunk encoded blocks. A ChunkView is
// one scan's reading plan over them — the projection resolved to block
// indexes once, plus the chunks its zone predicates left live — and its
// Range decodes an arbitrary row range of the live chunks (zero-copy
// when it falls inside one chunk) through the caller's one-chunk
// ChunkCache; DecodeRange is the same without zone predicates.
// ChunkPartitioned wraps a ChunkedTable as a chunk-backed Partition so
// catalog scans decode on demand instead of holding tables resident, and
// keeps one zone map per chunk (Partition.ChunkStats) beside the merged
// partition statistics. ColStats.HasNaN records NaN presence, which
// min/max cannot express. ReadCSVChunked streams a CSV file straight
// into chunks without materializing the table; empty numeric/bool fields
// become nulls (decoded as zero values).
//
// Decoding is exact: integers, bools, dict codes and float bit patterns
// round-trip unchanged, which is what lets chunk-backed scans satisfy
// the engine-wide byte-identity contract (see internal/relational).
package data
