package table

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Value is one tuple field. Exactly the member matching Type is meaningful.
type Value struct {
	Type  ColType
	Int   int64
	Float float64
	Str   string
	Vec   []float32
}

// IntVal returns an Int64 value.
func IntVal(v int64) Value { return Value{Type: Int64, Int: v} }

// FloatVal returns a Float64 value.
func FloatVal(v float64) Value { return Value{Type: Float64, Float: v} }

// TextVal returns a Text value.
func TextVal(v string) Value { return Value{Type: Text, Str: v} }

// VecVal returns a FloatVec value. The slice is not copied.
func VecVal(v []float32) Value { return Value{Type: FloatVec, Vec: v} }

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v.Type {
	case Int64:
		return fmt.Sprintf("%d", v.Int)
	case Float64:
		return fmt.Sprintf("%g", v.Float)
	case Text:
		return v.Str
	case FloatVec:
		if len(v.Vec) <= 8 {
			return fmt.Sprintf("%v", v.Vec)
		}
		return fmt.Sprintf("vec[%d]", len(v.Vec))
	default:
		return "<nil>"
	}
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Type != o.Type {
		return false
	}
	switch v.Type {
	case Int64:
		return v.Int == o.Int
	case Float64:
		return v.Float == o.Float
	case Text:
		return v.Str == o.Str
	case FloatVec:
		if len(v.Vec) != len(o.Vec) {
			return false
		}
		for i := range v.Vec {
			if v.Vec[i] != o.Vec[i] {
				return false
			}
		}
		return true
	}
	return false
}

// Tuple is one row: values in schema column order.
type Tuple []Value

// Encode serialises t against schema s into a compact binary record.
func Encode(s *Schema, t Tuple) ([]byte, error) {
	if len(t) != s.Len() {
		return nil, fmt.Errorf("table: tuple has %d values, schema has %d columns", len(t), s.Len())
	}
	size := 0
	for i, v := range t {
		if v.Type != s.Cols[i].Type {
			return nil, fmt.Errorf("table: column %q: value type %v, want %v", s.Cols[i].Name, v.Type, s.Cols[i].Type)
		}
		switch v.Type {
		case Int64, Float64:
			size += 8
		case Text:
			size += binary.MaxVarintLen64 + len(v.Str)
		case FloatVec:
			size += binary.MaxVarintLen64 + 4*len(v.Vec)
		}
	}
	buf := make([]byte, 0, size)
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range t {
		switch v.Type {
		case Int64:
			binary.LittleEndian.PutUint64(tmp[:8], uint64(v.Int))
			buf = append(buf, tmp[:8]...)
		case Float64:
			binary.LittleEndian.PutUint64(tmp[:8], math.Float64bits(v.Float))
			buf = append(buf, tmp[:8]...)
		case Text:
			n := binary.PutUvarint(tmp[:], uint64(len(v.Str)))
			buf = append(buf, tmp[:n]...)
			buf = append(buf, v.Str...)
		case FloatVec:
			n := binary.PutUvarint(tmp[:], uint64(len(v.Vec)))
			buf = append(buf, tmp[:n]...)
			for _, f := range v.Vec {
				binary.LittleEndian.PutUint32(tmp[:4], math.Float32bits(f))
				buf = append(buf, tmp[:4]...)
			}
		}
	}
	return buf, nil
}

// Decode deserialises a record produced by Encode against schema s.
func Decode(s *Schema, rec []byte) (Tuple, error) {
	t, _, err := DecodeInto(s, rec, nil, nil)
	return t, err
}

// DecodeInto deserialises a record like Decode, but reuses the caller's
// tuple header (when cap(t) suffices) and carves FloatVec payloads out of
// scratch (grown as needed and returned for the next call) instead of
// allocating per record. Block-streaming inner loops use it to fetch one
// tensor block per k-step with zero steady-state allocations. The returned
// tuple and its vector fields alias the buffers and are only valid until
// the next DecodeInto with the same buffers.
func DecodeInto(s *Schema, rec []byte, t Tuple, scratch []float32) (Tuple, []float32, error) {
	if cap(t) >= s.Len() {
		t = t[:s.Len()]
	} else {
		t = make(Tuple, s.Len())
	}
	// Measure pass: total float payload, so every vector column can be
	// carved from one stable backing array (growing mid-decode would
	// invalidate earlier columns' slices).
	floats, err := measureVecs(s, rec)
	if err != nil {
		return nil, scratch, err
	}
	if cap(scratch) < floats {
		scratch = make([]float32, floats)
	}
	scratch = scratch[:cap(scratch)]
	used := 0
	off := 0
	for i, c := range s.Cols {
		switch c.Type {
		case Int64:
			t[i] = IntVal(int64(binary.LittleEndian.Uint64(rec[off:])))
			off += 8
		case Float64:
			t[i] = FloatVal(math.Float64frombits(binary.LittleEndian.Uint64(rec[off:])))
			off += 8
		case Text:
			n, sz := binary.Uvarint(rec[off:])
			off += sz
			t[i] = TextVal(string(rec[off : off+int(n)]))
			off += int(n)
		case FloatVec:
			n, sz := binary.Uvarint(rec[off:])
			off += sz
			vec := scratch[used : used+int(n) : used+int(n)]
			used += int(n)
			decodeF32s(vec, rec[off:])
			off += 4 * int(n)
			t[i] = VecVal(vec)
		}
	}
	return t, scratch, nil
}

// decodeF32s bulk-decodes little-endian float32 payload bytes into dst. The
// caller has already bounds-checked src against the record (measureVecs);
// re-slicing src to exactly the payload hoists the per-element checks, so
// the loop compiles to a straight load/convert/store sweep. This one helper
// is the decode inner loop for both the row path (DecodeInto) and the
// columnar path (ColBatch.AppendRecord).
func decodeF32s(dst []float32, src []byte) {
	src = src[: 4*len(dst) : 4*len(dst)]
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// measureVecs walks the record validating field bounds and the absence of
// trailing bytes, and returns the total FloatVec element count. Every
// decoder of stored records runs it first, so their field loops can slice
// without further checks.
func measureVecs(s *Schema, rec []byte) (int, error) {
	floats := 0
	off := 0
	for _, c := range s.Cols {
		switch c.Type {
		case Int64, Float64:
			if off+8 > len(rec) {
				return 0, truncErr(c.Name)
			}
			off += 8
		case Text:
			n, sz := binary.Uvarint(rec[off:])
			// Reject n before converting to int: a corrupt uvarint near 2^64
			// goes negative as an int and would sail through the bounds check
			// only to blow up the slicing in DecodeInto.
			if sz <= 0 || n > uint64(len(rec)) || off+sz+int(n) > len(rec) {
				return 0, truncErr(c.Name)
			}
			off += sz + int(n)
		case FloatVec:
			n, sz := binary.Uvarint(rec[off:])
			if sz <= 0 || n > uint64(len(rec))/4 || off+sz+4*int(n) > len(rec) {
				return 0, truncErr(c.Name)
			}
			off += sz + 4*int(n)
			floats += int(n)
		}
	}
	if off != len(rec) {
		return 0, fmt.Errorf("table: %d trailing bytes after decoding tuple", len(rec)-off)
	}
	return floats, nil
}

// colValue decodes column col of a record measureVecs has validated; the
// columns before it are skipped, not decoded.
func colValue(s *Schema, rec []byte, col int) Value {
	off := 0
	for _, c := range s.Cols[:col] {
		switch c.Type {
		case Int64, Float64:
			off += 8
		case Text:
			n, sz := binary.Uvarint(rec[off:])
			off += sz + int(n)
		case FloatVec:
			n, sz := binary.Uvarint(rec[off:])
			off += sz + 4*int(n)
		}
	}
	switch s.Cols[col].Type {
	case Int64:
		return IntVal(int64(binary.LittleEndian.Uint64(rec[off:])))
	case Float64:
		return FloatVal(math.Float64frombits(binary.LittleEndian.Uint64(rec[off:])))
	case Text:
		n, sz := binary.Uvarint(rec[off:])
		return TextVal(string(rec[off+sz : off+sz+int(n)]))
	default:
		n, sz := binary.Uvarint(rec[off:])
		vec := make([]float32, n)
		decodeF32s(vec, rec[off+sz:])
		return VecVal(vec)
	}
}

func truncErr(col string) error {
	return fmt.Errorf("table: truncated record at column %q", col)
}
