package frame

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestAppendGolden pins the frame bytes. The WAL's on-disk files and the
// shard RPC wire are both made of these frames, so a change here is a
// format break, not a refactor.
func TestAppendGolden(t *testing.T) {
	// CRC32-C("123456789") is the algorithm's published check value.
	want := []byte{9, 0, 0, 0, '1', '2', '3', '4', '5', '6', '7', '8', '9', 0x83, 0x92, 0x06, 0xe3}
	if got := Append(nil, []byte("123456789")); !bytes.Equal(got, want) {
		t.Fatalf("Append = %#v\nwant     %#v", got, want)
	}
	// Two Conn frames, seq 1 and 2: the shard wire.
	var buf bytes.Buffer
	c := NewConn(&buf, nil)
	c.Send([]byte("rows"))
	c.Send([]byte("done"))
	want = []byte{
		0xc, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 'r', 'o', 'w', 's', 0xe7, 0x23, 0xed, 0xfd,
		0xc, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 'd', 'o', 'n', 'e', 0x31, 0x76, 0xd2, 0x04,
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Conn frames = %#v\nwant          %#v", buf.Bytes(), want)
	}
}

func TestReadRoundTrip(t *testing.T) {
	var stream []byte
	for _, p := range []string{"hello", "x", "replication"} {
		stream = Append(stream, []byte(p))
	}
	r := bytes.NewReader(stream)
	for _, want := range []string{"hello", "x", "replication"} {
		got, err := Read(r, 64)
		if err != nil || string(got) != want {
			t.Fatalf("Read = %q, %v; want %q", got, err, want)
		}
	}
	if _, err := Read(r, 64); err != io.EOF {
		t.Fatalf("read at end = %v, want io.EOF", err)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	raw := Append(nil, []byte("payload"))
	for i := range raw[4:] {
		bad := bytes.Clone(raw)
		bad[4+i] ^= 0x40
		if _, err := Read(bytes.NewReader(bad), 64); !errors.Is(err, ErrBroken) {
			t.Fatalf("bit flip at byte %d: %v, want ErrBroken", 4+i, err)
		}
	}
}

func TestReadRejectsInsaneLength(t *testing.T) {
	for _, raw := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0, 0},
		Append(nil, make([]byte, 65)), // one over the max below
	} {
		if _, err := Read(bytes.NewReader(raw), 64); !errors.Is(err, ErrBroken) {
			t.Fatalf("length %x: %v, want ErrBroken", raw[:4], err)
		}
	}
}

// TestReadTellsIOApart: a torn frame is an I/O condition the caller may
// treat as the end of the stream, not damage.
func TestReadTellsIOApart(t *testing.T) {
	raw := Append(nil, []byte("payload"))
	for cut := 1; cut < len(raw); cut++ {
		_, err := Read(bytes.NewReader(raw[:cut]), 64)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("frame cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestFields(t *testing.T) {
	b := AppendBytes(nil, []byte("table"))
	b = AppendBytes(b, nil)
	b = append(b, 0xEE)
	f1, rest, err := ReadBytes(b)
	if err != nil || string(f1) != "table" || cap(f1) != len(f1) {
		t.Fatalf("first field = %q (cap %d), %v", f1, cap(f1), err)
	}
	f2, rest, err := ReadBytes(rest)
	if err != nil || len(f2) != 0 || !bytes.Equal(rest, []byte{0xEE}) {
		t.Fatalf("second field = %q, rest %x, %v", f2, rest, err)
	}
	for _, bad := range [][]byte{
		nil,
		{5, 'a'},                       // length past the end
		{0x80},                         // unterminated uvarint
		{0x81, 0x00},                   // non-canonical 1
		{0x80, 0x00},                   // non-canonical 0
		bytes.Repeat([]byte{0xff}, 11), // overflowing uvarint
	} {
		if _, _, err := ReadBytes(bad); !errors.Is(err, ErrBroken) {
			t.Fatalf("ReadBytes(%x) = %v, want ErrBroken", bad, err)
		}
	}
	// A huge declared length must fail cleanly, not wrap.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if _, _, err := ReadBytes(huge); !errors.Is(err, ErrBroken) {
		t.Fatalf("ReadBytes(max uint64 length) = %v", err)
	}
}

// FuzzFrameRead: Read and the field readers never panic on arbitrary
// bytes, and whatever they accept re-encodes to exactly the bytes read.
func FuzzFrameRead(f *testing.F) {
	f.Add(Append(nil, []byte("payload")))
	f.Add(AppendBytes(nil, []byte("field")))
	f.Fuzz(func(t *testing.T, in []byte) {
		if p, err := Read(bytes.NewReader(in), 1<<16); err == nil {
			if got := Append(nil, p); !bytes.Equal(got, in[:len(got)]) {
				t.Fatalf("frame re-encodes to %x, read %x", got, in[:len(got)])
			}
		}
		if field, rest, err := ReadBytes(in); err == nil {
			if got := AppendBytes(nil, field); !bytes.Equal(append(got, rest...), in) {
				t.Fatalf("field re-encodes to %x, read %x", got, in)
			}
		}
		// A Conn reading the same bytes ends in an error, never a panic.
		c := NewConn(&readOnly{bytes.NewReader(in)}, nil)
		for {
			if _, err := c.Recv(); err != nil {
				break
			}
		}
	})
}

type readOnly struct{ io.Reader }

func (readOnly) Write(p []byte) (int, error) { return len(p), nil }
