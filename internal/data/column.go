package data

import (
	"fmt"
	"math"
	"strconv"
)

// Type is the physical type of a column.
type Type uint8

const (
	// Float64 holds double-precision numeric values.
	Float64 Type = iota
	// Int64 holds signed integers (ids, counts).
	Int64
	// String holds categorical / text values.
	String
	// Bool holds boolean flags.
	Bool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Float64:
		return "FLOAT"
	case Int64:
		return "BIGINT"
	case String:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Column is a typed vector of values. Exactly one of the value slices is
// populated, according to Type; a String column holds either raw Str or
// dictionary-encoded Codes+Dict (never both). Columns are the unit of IO
// accounting: operators that avoid reading a column genuinely avoid
// touching its slice.
type Column struct {
	Name string
	Type Type
	F64  []float64
	I64  []int64
	Str  []string
	B    []bool
	// Codes and Dict hold the dictionary-encoded representation of a
	// String column: Dict maps codes to values, Codes is the row vector.
	Codes []int32
	Dict  *Dictionary
}

// NewFloat returns a Float64 column backed by vals (not copied).
func NewFloat(name string, vals []float64) *Column {
	return &Column{Name: name, Type: Float64, F64: vals}
}

// NewInt returns an Int64 column backed by vals (not copied).
func NewInt(name string, vals []int64) *Column {
	return &Column{Name: name, Type: Int64, I64: vals}
}

// NewString returns a String column backed by vals (not copied).
func NewString(name string, vals []string) *Column {
	return &Column{Name: name, Type: String, Str: vals}
}

// NewBool returns a Bool column backed by vals (not copied).
func NewBool(name string, vals []bool) *Column {
	return &Column{Name: name, Type: Bool, B: vals}
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	switch c.Type {
	case Float64:
		return len(c.F64)
	case Int64:
		return len(c.I64)
	case String:
		if c.Dict != nil {
			return len(c.Codes)
		}
		return len(c.Str)
	case Bool:
		return len(c.B)
	}
	return 0
}

// Slice returns a zero-copy view of rows [lo, hi).
func (c *Column) Slice(lo, hi int) *Column {
	out := &Column{Name: c.Name, Type: c.Type, Dict: c.Dict}
	switch c.Type {
	case Float64:
		out.F64 = c.F64[lo:hi]
	case Int64:
		out.I64 = c.I64[lo:hi]
	case String:
		if c.Dict != nil {
			out.Codes = c.Codes[lo:hi]
		} else {
			out.Str = c.Str[lo:hi]
		}
	case Bool:
		out.B = c.B[lo:hi]
	}
	return out
}

// Gather returns a new column containing the rows at the given indices.
func (c *Column) Gather(idx []int) *Column {
	out := &Column{Name: c.Name, Type: c.Type, Dict: c.Dict}
	switch c.Type {
	case Float64:
		out.F64 = make([]float64, len(idx))
		for i, j := range idx {
			out.F64[i] = c.F64[j]
		}
	case Int64:
		out.I64 = make([]int64, len(idx))
		for i, j := range idx {
			out.I64[i] = c.I64[j]
		}
	case String:
		if c.Dict != nil {
			out.Codes = make([]int32, len(idx))
			for i, j := range idx {
				out.Codes[i] = c.Codes[j]
			}
		} else {
			out.Str = make([]string, len(idx))
			for i, j := range idx {
				out.Str[i] = c.Str[j]
			}
		}
	case Bool:
		out.B = make([]bool, len(idx))
		for i, j := range idx {
			out.B[i] = c.B[j]
		}
	}
	return out
}

// Filter returns a new column containing rows where keep[i] is true.
func (c *Column) Filter(keep []bool) *Column {
	return c.FilterCount(keep, CountTrue(keep))
}

// CountTrue returns the number of set entries in a selection mask.
func CountTrue(keep []bool) int {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	return n
}

// FilterCount is Filter with the mask's true-count precomputed, so a
// table filters all columns after counting the mask once. An all-false
// mask returns a zero-row view of the column: storage present but
// empty, with capacity clipped to zero (three-index slices) so a later
// append into the view can never write through to the source array.
func (c *Column) FilterCount(keep []bool, n int) *Column {
	if n == 0 {
		out := &Column{Name: c.Name, Type: c.Type, Dict: c.Dict}
		switch c.Type {
		case Float64:
			out.F64 = clipEmpty(c.F64)
		case Int64:
			out.I64 = clipEmpty(c.I64)
		case String:
			if c.Dict != nil {
				out.Codes = clipEmpty(c.Codes)
			} else {
				out.Str = clipEmpty(c.Str)
			}
		case Bool:
			out.B = clipEmpty(c.B)
		}
		return out
	}
	out := &Column{Name: c.Name, Type: c.Type, Dict: c.Dict}
	switch c.Type {
	case Float64:
		out.F64 = make([]float64, 0, n)
		for i, k := range keep {
			if k {
				out.F64 = append(out.F64, c.F64[i])
			}
		}
	case Int64:
		out.I64 = make([]int64, 0, n)
		for i, k := range keep {
			if k {
				out.I64 = append(out.I64, c.I64[i])
			}
		}
	case String:
		if c.Dict != nil {
			out.Codes = make([]int32, 0, n)
			for i, k := range keep {
				if k {
					out.Codes = append(out.Codes, c.Codes[i])
				}
			}
		} else {
			out.Str = make([]string, 0, n)
			for i, k := range keep {
				if k {
					out.Str = append(out.Str, c.Str[i])
				}
			}
		}
	case Bool:
		out.B = make([]bool, 0, n)
		for i, k := range keep {
			if k {
				out.B = append(out.B, c.B[i])
			}
		}
	}
	return out
}

// clipEmpty returns a zero-length, zero-capacity view of s that is never
// nil: the empty-view invariant requires storage present even when the
// source column was itself created without backing storage (a nil slice),
// which s[:0:0] alone would preserve as nil.
func clipEmpty[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s[:0:0]
}

// AppendFrom appends all rows of src (same type) to c. Dictionary-encoded
// appends stay encoded when both sides share one dictionary (the common
// case: batches of one table); otherwise the receiver falls back to raw
// strings so values are preserved exactly.
func (c *Column) AppendFrom(src *Column) error {
	if c.Type != src.Type {
		return fmt.Errorf("data: append %s column to %s column %q", src.Type, c.Type, c.Name)
	}
	switch c.Type {
	case Float64:
		c.F64 = append(c.F64, src.F64...)
	case Int64:
		c.I64 = append(c.I64, src.I64...)
	case String:
		if c.Dict != nil && c.Dict == src.Dict {
			c.Codes = append(c.Codes, src.Codes...)
			return nil
		}
		c.decodeInPlace()
		if src.IsDict() {
			for _, code := range src.Codes {
				c.Str = append(c.Str, src.Dict.vals[code])
			}
		} else {
			c.Str = append(c.Str, src.Str...)
		}
	case Bool:
		c.B = append(c.B, src.B...)
	}
	return nil
}

// AppendRow appends row i of src (same type) to c. Like AppendFrom,
// dictionary-encoded appends stay encoded only when both sides share one
// dictionary; otherwise the receiver falls back to raw strings.
func (c *Column) AppendRow(src *Column, i int) error {
	if c.Type != src.Type {
		return fmt.Errorf("data: append %s row to %s column %q", src.Type, c.Type, c.Name)
	}
	switch c.Type {
	case Float64:
		c.F64 = append(c.F64, src.F64[i])
	case Int64:
		c.I64 = append(c.I64, src.I64[i])
	case String:
		if c.Dict != nil && c.Dict == src.Dict {
			c.Codes = append(c.Codes, src.Codes[i])
			return nil
		}
		c.decodeInPlace()
		c.Str = append(c.Str, src.AsString(i))
	case Bool:
		c.B = append(c.B, src.B[i])
	}
	return nil
}

// Clone returns a deep copy of the column (dictionaries, being immutable,
// are shared).
func (c *Column) Clone() *Column {
	out := &Column{Name: c.Name, Type: c.Type, Dict: c.Dict}
	switch c.Type {
	case Float64:
		out.F64 = append([]float64(nil), c.F64...)
	case Int64:
		out.I64 = append([]int64(nil), c.I64...)
	case String:
		if c.Dict != nil {
			out.Codes = append([]int32(nil), c.Codes...)
		} else {
			out.Str = append([]string(nil), c.Str...)
		}
	case Bool:
		out.B = append([]bool(nil), c.B...)
	}
	return out
}

// AsFloat returns the value at row i coerced to float64. String columns
// return NaN; callers that need categorical semantics must use Str.
func (c *Column) AsFloat(i int) float64 {
	switch c.Type {
	case Float64:
		return c.F64[i]
	case Int64:
		return float64(c.I64[i])
	case Bool:
		if c.B[i] {
			return 1
		}
		return 0
	}
	return math.NaN()
}

// AsString returns the value at row i rendered as a string.
func (c *Column) AsString(i int) string {
	switch c.Type {
	case Float64:
		return strconv.FormatFloat(c.F64[i], 'g', -1, 64)
	case Int64:
		return strconv.FormatInt(c.I64[i], 10)
	case String:
		if c.Dict != nil {
			return c.Dict.vals[c.Codes[i]]
		}
		return c.Str[i]
	case Bool:
		if c.B[i] {
			return "true"
		}
		return "false"
	}
	return ""
}

// ByteSize returns the approximate in-memory size of the column payload,
// used by the engines to account for IO and shuffle volume.
func (c *Column) ByteSize() int64 {
	switch c.Type {
	case Float64:
		return int64(len(c.F64) * 8)
	case Int64:
		return int64(len(c.I64) * 8)
	case String:
		if c.Dict != nil {
			// Codes are the per-row payload; the shared dictionary is
			// charged to whoever scans the column, amortized over rows.
			return int64(len(c.Codes) * 4)
		}
		var n int64
		for _, s := range c.Str {
			n += int64(len(s)) + 16
		}
		return n
	case Bool:
		return int64(len(c.B))
	}
	return 0
}
