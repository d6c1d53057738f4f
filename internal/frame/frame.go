// Package frame is the one byte codec under every stream boundary in
// tensorbase: the write-ahead log on disk, the replication stream, and the
// shard RPC wire.
//
// It has three pieces:
//
//   - A frame codec. A frame is
//
//     u32 len | payload | u32 CRC32-C(payload)
//
//     little-endian, with 0 < len ≤ the caller's max. Append writes one and
//     Read reads one.
//
//   - A sequenced connection, Conn, that carries a u64 sequence number in
//     front of each payload and enforces in-order delivery (see conn.go).
//
//   - A field codec for the payloads themselves: AppendBytes/ReadBytes for
//     a uvarint length followed by that many bytes, and ReadUvarint for a
//     bare count. Readers accept only the canonical (shortest) uvarint
//     encoding, so anything that decodes re-encodes to the same bytes.
//
// Every reader treats its input as untrusted: lengths are checked against
// the bytes present before they are used, so damage is an error, never a
// panic or an allocation past the caller's bound.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Overhead is the bytes a frame adds around its payload: the length
// prefix and the CRC trailer.
const Overhead = 4 + 4

// ErrBroken reports bytes that cannot be trusted: a CRC mismatch, a frame
// length of zero or over the caller's max, a sequence gap or reorder on a
// Conn, or a malformed field. Errors from the underlying reader (including
// io.EOF at a frame boundary and io.ErrUnexpectedEOF inside a frame) are
// returned as they are, so callers can tell damage apart from I/O.
var ErrBroken = errors.New("frame: stream broken")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Append appends the frame carrying payload to dst.
func Append(dst, payload []byte) []byte { return appendFrame(dst, nil, payload) }

// appendFrame appends the frame whose payload is head followed by tail,
// without first copying the two into one buffer.
func appendFrame(dst, head, tail []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(head)+len(tail)))
	dst = append(append(dst, head...), tail...)
	sum := crc32.Update(crc32.Checksum(head, castagnoli), castagnoli, tail)
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// Read reads one frame from r and returns its CRC-verified payload, which
// is never empty and never longer than max.
func Read(r io.Reader, max int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || uint64(n) > uint64(max) {
		return nil, fmt.Errorf("%w: frame length %d", ErrBroken, n)
	}
	body := make([]byte, n+4)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.Checksum(body[:n], castagnoli) != binary.LittleEndian.Uint32(body[n:]) {
		return nil, fmt.Errorf("%w: frame CRC mismatch", ErrBroken)
	}
	return body[:n:n], nil
}

// AppendBytes appends b to dst as a field: uvarint len(b), then b.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// ReadUvarint reads a canonical uvarint from the front of b and returns it
// with the rest of b.
func ReadUvarint(b []byte) (uint64, []byte, error) {
	v, sz := binary.Uvarint(b)
	// A longer-than-needed encoding ends in a 0x00 byte.
	if sz <= 0 || (sz > 1 && b[sz-1] == 0) {
		return 0, nil, fmt.Errorf("%w: bad uvarint", ErrBroken)
	}
	return v, b[sz:], nil
}

// ReadBytes reads a field written by AppendBytes from the front of b. The
// field aliases b but is capacity-capped, so appending to it cannot
// clobber the rest.
func ReadBytes(b []byte) (field, rest []byte, err error) {
	n, b, err := ReadUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: truncated field", ErrBroken)
	}
	return b[:n:n], b[n:], nil
}
