package data

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Compressed column-block encoding — the storage format shared by the
// chunked table layer (chunked.go) and the relational spill files. A
// column block is (BlockMeta, payload bytes): the metadata carries
// everything needed to decode the payload back into an identical Column.
//
// Encodings are chosen from the column's physical type:
//
//	Int64         → frame-of-reference + bit-packing: the block minimum is
//	                subtracted and the non-negative deltas are packed at
//	                the smallest width that holds the block maximum. A
//	                constant block packs at width 0 (no payload at all).
//	String (dict) → the int32 code vector bit-packed at the width of the
//	                block's largest code; the shared *Dictionary travels in
//	                the metadata by pointer. Blocks therefore live only as
//	                long as the process — exactly the lifetime of spill
//	                files and chunked tables, both per-process artifacts.
//	Bool          → one bit per row, LSB-first.
//	Float64       → raw little-endian bits (doubles rarely compress
//	                without loss; exact round-trip is the contract here).
//	String (raw)  → uvarint-length-prefixed bytes.
//
// Every block may carry a validity bitmap (Meta.Valid, 1 = present): rows
// marked absent decode to the type's zero value. In-memory Columns have
// no null representation, so EncodeColumn emits all-valid blocks; the
// bitmap exists for loaders (ReadCSVChunked maps empty numeric CSV fields
// to nulls) and round-trips through the format.
//
// Bit-packed payloads are LSB-first streams of exactly
// ceil(rows·width/8) bytes, moved a 64-bit word per value: packUints ORs
// each value into the little-endian window at its first byte and
// unpackUints reads it back from the same window, writing straight into
// the column's []int64 or []int32. DecodeColumn validates a block before
// decoding it — row count, width, payload and bitmap lengths — so a short
// or inconsistent block is an error, never an out-of-range index.

// Encoding identifies the physical encoding of one column block.
type Encoding uint8

const (
	// EncRawFloat is raw little-endian float64 bits.
	EncRawFloat Encoding = iota
	// EncIntFOR is frame-of-reference bit-packed Int64.
	EncIntFOR
	// EncDictCodes is bit-packed dictionary codes over a shared Dictionary.
	EncDictCodes
	// EncBits is a one-bit-per-row bitmap (Bool columns).
	EncBits
	// EncRawString is uvarint-length-prefixed raw string bytes.
	EncRawString
)

// BlockMeta describes one encoded column block. Metadata stays in process
// memory (only the payload is written to disk by spill files), so the
// dictionary reference is the live pointer — preserving the column's
// representation, and with it every pointer-identity cache keyed on it,
// across an encode/decode round trip.
type BlockMeta struct {
	Name string
	Type Type
	Rows int
	Enc  Encoding
	// Min is the frame-of-reference base of EncIntFOR blocks.
	Min int64
	// Width is the packed bit width of EncIntFOR / EncDictCodes payloads;
	// 0 means every value equals the base (no payload).
	Width uint8
	// Dict is the shared dictionary of EncDictCodes blocks.
	Dict *Dictionary
	// Valid is the optional validity bitmap (LSB-first, 1 = present);
	// nil means every row is valid.
	Valid []byte
}

// EncodeColumn encodes a column into a block, choosing the encoding from
// its physical representation. All rows are marked valid.
func EncodeColumn(c *Column) (BlockMeta, []byte, error) {
	m := BlockMeta{Name: c.Name, Type: c.Type, Rows: c.Len()}
	switch {
	case c.Type == Int64:
		m.Enc = EncIntFOR
		if len(c.I64) == 0 {
			return m, nil, nil
		}
		lo, hi := c.I64[0], c.I64[0]
		for _, v := range c.I64[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		m.Min = lo
		// Two's-complement subtraction in uint64 gives the true
		// non-negative delta for any int64 pair with hi >= lo.
		m.Width = uint8(bits.Len64(uint64(hi) - uint64(lo)))
		return m, packUints(c.I64, m.Width, uint64(lo)), nil
	case c.IsDict():
		m.Enc = EncDictCodes
		m.Dict = c.Dict
		var raw []byte
		m.Width, raw = packCodes(c.Codes)
		return m, raw, nil
	case c.Type == Bool:
		m.Enc = EncBits
		return m, PackBits(c.B), nil
	case c.Type == Float64:
		m.Enc = EncRawFloat
		raw := make([]byte, 8*len(c.F64))
		for i, v := range c.F64 {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		return m, raw, nil
	case c.Type == String:
		m.Enc = EncRawString
		var raw []byte
		for _, s := range c.Str {
			raw = binary.AppendUvarint(raw, uint64(len(s)))
			raw = append(raw, s...)
		}
		return m, raw, nil
	}
	return m, nil, fmt.Errorf("data: cannot encode column %q of type %s", c.Name, c.Type)
}

// DecodeColumn decodes a block back into a column identical to the one
// encoded: same type, same values, same representation (dictionary blocks
// decode to codes over the same shared *Dictionary). Rows the validity
// bitmap marks absent decode to the type's zero value. A block whose
// metadata and payload disagree is an error.
func DecodeColumn(m BlockMeta, raw []byte) (*Column, error) {
	return decodeColumn(m, raw, nil)
}

// DecodeColumnAt decodes only the rows of the block at the given
// positions, which must ascend strictly within [0, m.Rows): the column
// DecodeColumn would return, gathered at pos. Each bit-packed value is one
// 64-bit window read, a float one load and a bool one bit; raw strings
// walk the length prefixes of the whole block — the same validation
// DecodeColumn performs — but allocate only the selected strings. A
// dictionary code outside the dictionary is an error only at a selected
// position, reported with its row index within the block. A nil pos
// selects no rows.
func DecodeColumnAt(m BlockMeta, raw []byte, pos []int32) (*Column, error) {
	if pos == nil {
		pos = []int32{}
	}
	return decodeColumn(m, raw, pos)
}

// decodeColumn is DecodeColumn (pos == nil: every row) and DecodeColumnAt
// (the rows at pos) in one body, so both validate, range-check codes and
// apply the validity bitmap identically.
func decodeColumn(m BlockMeta, raw []byte, pos []int32) (*Column, error) {
	if err := checkBlock(m, raw); err != nil {
		return nil, err
	}
	n := m.Rows
	if pos != nil {
		n = len(pos)
		last := int32(-1)
		for _, p := range pos {
			if p <= last || int(p) >= m.Rows {
				return nil, fmt.Errorf("data: block %q: position %d out of order or outside %d rows", m.Name, p, m.Rows)
			}
			last = p
		}
	}
	c := &Column{Name: m.Name, Type: m.Type}
	switch m.Enc {
	case EncIntFOR:
		c.I64 = make([]int64, n)
		unpack(c.I64, raw, pos, m.Width, uint64(m.Min))
	case EncDictCodes:
		if m.Dict == nil {
			return nil, fmt.Errorf("data: dict-coded block %q lacks its dictionary", m.Name)
		}
		c.Dict = m.Dict
		c.Codes = make([]int32, n)
		unpack(c.Codes, raw, pos, m.Width, 0)
		// Width-w codes are below 1<<w, so only a dictionary smaller than
		// that can be overrun.
		if limit := uint64(m.Dict.Len()); 1<<m.Width > limit {
			for i, code := range c.Codes {
				if uint64(uint32(code)) >= limit {
					return nil, fmt.Errorf("data: block %q row %d: code %d outside dictionary of %d", m.Name, rowAt(pos, i), uint32(code), limit)
				}
			}
		}
	case EncBits:
		c.B = unpackBits(raw, pos, n)
	case EncRawFloat:
		f := make([]float64, n)
		for i := range f {
			f[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*rowAt(pos, i):]))
		}
		c.F64 = f
	case EncRawString:
		c.Str = make([]string, n)
		next := 0 // index of the next wanted output row
		for row := 0; row < m.Rows; row++ {
			l, used := binary.Uvarint(raw)
			if used <= 0 || uint64(len(raw)-used) < l {
				return nil, fmt.Errorf("data: string block %q truncated at row %d", m.Name, row)
			}
			if next < n && rowAt(pos, next) == row {
				c.Str[next] = string(raw[used : used+int(l)])
				next++
			}
			raw = raw[used+int(l):]
		}
	default:
		return nil, fmt.Errorf("data: unknown block encoding %d for %q", m.Enc, m.Name)
	}
	if m.Valid != nil {
		zeroInvalid(c, m.Valid, pos)
	}
	return c, nil
}

// rowAt maps output row i to its row within the block: pos[i], or i when
// every row is decoded (pos == nil).
func rowAt(pos []int32, i int) int {
	if pos == nil {
		return i
	}
	return int(pos[i])
}

// zeroInvalid forces rows the validity bitmap marks absent to the type's
// zero value, so a null survives the round trip deterministically no
// matter what the encoder packed in its slot. Output row i is block row
// rowAt(pos, i).
func zeroInvalid(c *Column, valid []byte, pos []int32) {
	for i := 0; i < c.Len(); i++ {
		if BitAt(valid, rowAt(pos, i)) {
			continue
		}
		switch c.Type {
		case Float64:
			c.F64[i] = 0
		case Int64:
			c.I64[i] = 0
		case Bool:
			c.B[i] = false
		case String:
			if c.Dict == nil {
				c.Str[i] = ""
			}
		}
	}
}

// checkBlock rejects a block whose metadata and payload disagree before
// any decoder indexes into them: a non-negative row count, a width the
// encoding can hold, a payload no shorter than the rows need (a raw
// string row needs at least its one-byte length) and a validity bitmap
// covering every row. Only payload lengths are ever multiplied, never
// the row count, so no row count can overflow the comparisons.
func checkBlock(m BlockMeta, raw []byte) error {
	if m.Rows < 0 {
		return fmt.Errorf("data: block %q: negative row count %d", m.Name, m.Rows)
	}
	if m.Valid != nil && m.Rows > 8*len(m.Valid) {
		return fmt.Errorf("data: block %q: %d-byte validity bitmap for %d rows", m.Name, len(m.Valid), m.Rows)
	}
	short := false
	switch m.Enc {
	case EncIntFOR, EncDictCodes:
		maxWidth := 64
		if m.Enc == EncDictCodes {
			maxWidth = 32
		}
		if int(m.Width) > maxWidth {
			return fmt.Errorf("data: block %q: width %d exceeds %d", m.Name, m.Width, maxWidth)
		}
		short = m.Width > 0 && m.Rows > 8*len(raw)/int(m.Width)
	case EncBits:
		short = m.Rows > 8*len(raw)
	case EncRawFloat:
		short = m.Rows > len(raw)/8
	case EncRawString:
		short = m.Rows > len(raw)
	}
	if short {
		return fmt.Errorf("data: block %q: %d bytes for %d rows at width %d", m.Name, len(raw), m.Rows, m.Width)
	}
	return nil
}

// packCodes bit-packs dictionary codes at the width of the largest one.
func packCodes(codes []int32) (uint8, []byte) {
	var maxCode int32
	for _, code := range codes {
		maxCode = max(maxCode, code)
	}
	width := uint8(bits.Len32(uint32(maxCode)))
	return width, packUints(codes, width, 0)
}

// packUints packs the width-bit values uint64(v)-base of src into an
// LSB-first bit stream of exactly ceil(len(src)·width/8) bytes. Width 0
// packs nothing (every value equals base).
func packUints[T int64 | int32](src []T, width uint8, base uint64) []byte {
	if width == 0 {
		return nil
	}
	out := make([]byte, (len(src)*int(width)+7)/8)
	i, bit := packWindows(out, src, 0, width, base)
	if i < len(src) {
		// Fewer than 9 bytes remain: finish in a zero-padded copy that
		// holds every remaining value's window.
		var pad [17]byte
		p := bit >> 3
		copy(pad[:], out[p:])
		packWindows(pad[:], src[i:], bit&7, width, base)
		copy(out[p:], pad[:])
	}
	return out
}

// packWindows packs src starting at bit offset bit of out, one 64-bit
// window per value: the value is ORed in at bit&7 of the little-endian
// word at byte bit>>3, and when (bit&7)+width > 64 its high bits go into
// the ninth byte. It stops before the first value whose 9-byte window
// would leave out, returning how many values it packed and the bit
// offset it reached.
func packWindows[T int64 | int32](out []byte, src []T, bit uint, width uint8, base uint64) (int, uint) {
	w := uint(width)
	mask := uint64(1)<<w - 1
	for i, x := range src {
		p, s := bit>>3, bit&7
		if p+9 > uint(len(out)) {
			return i, bit
		}
		v := (uint64(x) - base) & mask
		win := out[p : p+8]
		binary.LittleEndian.PutUint64(win, binary.LittleEndian.Uint64(win)|v<<s)
		if s+w > 64 {
			out[p+8] |= byte(v >> (64 - s))
		}
		bit += w
	}
	return len(src), bit
}

// unpack fills dst with the width-bit values (plus base) of raw: every
// value when pos is nil, otherwise the values at pos.
func unpack[T int64 | int32](dst []T, raw []byte, pos []int32, width uint8, base uint64) {
	if pos == nil {
		unpackUints(dst, raw, width, base)
		return
	}
	unpackAt(dst, raw, pos, width, base)
}

// unpackAt reads the value at each position of pos with one 64-bit window,
// exactly as unpackWindows reads the values in sequence; a window that
// would leave raw is read from a zero-padded copy of the bytes left.
func unpackAt[T int64 | int32](dst []T, raw []byte, pos []int32, width uint8, base uint64) {
	w := uint(width)
	mask := uint64(1)<<w - 1
	for i, p := range pos {
		bit := uint(p) * w
		b, s := bit>>3, bit&7
		win := raw
		if b+9 > uint(len(raw)) {
			var pad [9]byte
			copy(pad[:], raw[min(b, uint(len(raw))):])
			win, b = pad[:], 0
		}
		v := binary.LittleEndian.Uint64(win[b:]) >> s
		if s+w > 64 {
			v |= uint64(win[b+8]) << (64 - s)
		}
		dst[i] = T(base + v&mask)
	}
}

// unpackUints reverses packUints into dst: len(dst) width-bit values, each
// plus base. raw must hold ceil(len(dst)·width/8) bytes (checkBlock);
// width 0 needs none and fills dst with base.
func unpackUints[T int64 | int32](dst []T, raw []byte, width uint8, base uint64) {
	i, bit := unpackWindows(dst, raw, 0, width, base)
	if i < len(dst) {
		// Fewer than 9 bytes remain: finish from a zero-padded copy that
		// holds every remaining value's window.
		var pad [17]byte
		copy(pad[:], raw[bit>>3:])
		unpackWindows(dst[i:], pad[:], bit&7, width, base)
	}
}

// unpackWindows is packWindows' inverse: each value is the little-endian
// word at byte bit>>3 shifted right by bit&7, ORed with the ninth byte
// when (bit&7)+width > 64, masked to width.
func unpackWindows[T int64 | int32](dst []T, raw []byte, bit uint, width uint8, base uint64) (int, uint) {
	w := uint(width)
	mask := uint64(1)<<w - 1
	for i := range dst {
		p, s := bit>>3, bit&7
		if p+9 > uint(len(raw)) {
			return i, bit
		}
		v := binary.LittleEndian.Uint64(raw[p:]) >> s
		if s+w > 64 {
			v |= uint64(raw[p+8]) << (64 - s)
		}
		dst[i] = T(base + v&mask)
		bit += w
	}
	return len(dst), bit
}

// PackBits packs a bool slice one bit per entry, LSB-first — the shared
// layout of Bool payloads and validity bitmaps.
func PackBits(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i>>3] |= 1 << (i & 7)
		}
	}
	return out
}

// unpackBits reads n bits of an LSB-first bitmap: the first n, or the
// ones at pos.
func unpackBits(raw []byte, pos []int32, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = BitAt(raw, rowAt(pos, i))
	}
	return out
}

// BitAt reads bit i of an LSB-first bitmap.
func BitAt(raw []byte, i int) bool {
	return raw[i>>3]&(1<<(i&7)) != 0
}
