package shard

import (
	"bytes"
	"encoding/binary"
	"testing"

	"tensorbase/internal/frame"
	"tensorbase/internal/table"
)

// nearestReqBody is a reqNearest body (after the kind byte) declaring a
// query vector of dim floats but carrying none.
func nearestReqBody(dim uint64) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, 0) // floor
	buf = frame.AppendBytes(buf, []byte("t"))
	buf = frame.AppendBytes(buf, []byte("features"))
	buf = binary.AppendUvarint(buf, 3) // k
	return binary.AppendUvarint(buf, dim)
}

// A dim of 2^62 makes 4*dim wrap to 0, which once matched the empty vector
// payload and sent the server into make([]float32, 2^62).
func TestDecodeNearestReqRejectsWrappingDim(t *testing.T) {
	if _, _, _, _, _, err := decodeNearestReq(nearestReqBody(1 << 62)); err == nil {
		t.Fatal("dim 2^62 with no payload decoded cleanly")
	}
}

// A count of 2^61 makes 8*n wrap to 0; see above.
func TestDecodeDistsFrameRejectsWrappingCount(t *testing.T) {
	if _, err := decodeDistsFrame(binary.AppendUvarint(nil, 1<<61)); err == nil {
		t.Fatal("count 2^61 with no payload decoded cleanly")
	}
}

func TestNearestAndDistsRoundTrip(t *testing.T) {
	req := encodeNearestReq("t", "features", []float32{1.5, -2}, 3, 42)
	tbl, col, q, k, floor, err := decodeNearestReq(req[1:])
	if err != nil || tbl != "t" || col != "features" || len(q) != 2 || q[1] != -2 || k != 3 || floor != 42 {
		t.Fatalf("nearest round-trip = %q %q %v %d %d %v", tbl, col, q, k, floor, err)
	}
	d, err := decodeDistsFrame(encodeDistsFrame([]float64{0.25, 9})[1:])
	if err != nil || len(d) != 2 || d[0] != 0.25 || d[1] != 9 {
		t.Fatalf("dists round-trip = %v, %v", d, err)
	}
}

// fuzzSchema types the rows frames FuzzShardDecode decodes.
var fuzzSchema = table.MustSchema(
	table.Column{Name: "id", Type: table.Int64},
	table.Column{Name: "name", Type: table.Text},
	table.Column{Name: "features", Type: table.FloatVec},
)

// FuzzShardDecode feeds arbitrary bytes to every shard wire decoder. The
// first input byte picks the decoder, the rest is the message body as the
// client or server sees it after the kind byte. No input may panic, and
// where the encoding is unique, whatever decodes must re-encode to exactly
// the bytes received.
func FuzzShardDecode(f *testing.F) {
	const (
		fSchema = iota
		fRows
		fDists
		fDone
		fErr
		fNearest
		fVIndex
		nDecoders
	)
	rows, _ := encodeRowsFrame(fuzzSchema, []table.Tuple{{table.IntVal(7), table.TextVal("x"), table.VecVal([]float32{1, 2})}})
	for _, seed := range [][]byte{
		append([]byte{fSchema}, encodeSchema(nil, fuzzSchema)...),
		append([]byte{fRows}, rows[1:]...),
		append([]byte{fDists}, encodeDistsFrame([]float64{0.5})[1:]...),
		append([]byte{fDone}, encodeDone(3, 4, 5)[1:]...),
		append([]byte{fErr}, encodeErr(ErrLag)[1:]...),
		append([]byte{fNearest}, encodeNearestReq("t", "v", []float32{1}, 2, 3)[1:]...),
		append([]byte{fVIndex}, encodeVIndexReq("t", "v")[1:]...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		body := in[1:]
		var out []byte
		switch in[0] % nDecoders {
		case fSchema:
			if s, rest, err := decodeSchema(body); err == nil {
				out, body = encodeSchema(nil, s), body[:len(body)-len(rest)]
			}
		case fRows:
			decodeRowsFrame(fuzzSchema, body) // table's tuple encoding is not unique
		case fDists:
			if d, err := decodeDistsFrame(body); err == nil {
				out = encodeDistsFrame(d)[1:]
			}
		case fDone:
			if n, snap, committed, err := decodeDone(body); err == nil {
				out = encodeDone(n, snap, committed)[1:]
			}
		case fErr:
			decodeErr(body) // unknown codes collapse to the generic one
		case fNearest:
			if tbl, col, q, k, floor, err := decodeNearestReq(body); err == nil {
				out = encodeNearestReq(tbl, col, q, k, floor)[1:]
			}
		case fVIndex:
			if tbl, col, err := decodeVIndexReq(body); err == nil {
				out = encodeVIndexReq(tbl, col)[1:]
			}
		}
		if out != nil && !bytes.Equal(out, body) {
			t.Fatalf("decoded message re-encodes to %x, received %x", out, body)
		}
	})
}
