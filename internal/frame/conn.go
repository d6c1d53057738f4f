package frame

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"tensorbase/internal/fault"
)

// Conn carries opaque payloads over any io.ReadWriter (net.Pipe in tests,
// TCP between nodes) as sequence-numbered frames. Each frame's payload is
// the sequence number followed by the caller's bytes, so on the wire:
//
//	u32 len | u64 seq | payload | u32 CRC32-C(seq|payload)
//
// The sender routes every frame through an optional fault.Link, a
// lossy-wire model: drops are silent, a held frame is released after its
// successor (one-slot reorder), duplicates are written twice, delays sleep
// in-line. The receiver enforces the sequence discipline those faults
// attack: a duplicate (seq ≤ last seen) is discarded, while a gap or
// reorder surfaces ErrBroken, the caller's signal to drop the connection
// and start over on a fresh one. Each direction of a connection numbers
// its own frames, so one Conn per endpoint covers request/response
// traffic.
//
// A Conn is not safe for concurrent use; callers serialise their sends and
// their receives.
type Conn struct {
	rw      io.ReadWriter
	link    *fault.Link
	sendSeq uint64
	recvSeq uint64
	held    []byte
}

// maxPayload bounds one Conn payload. A replication resync carries a whole
// database snapshot in one frame, so the cap is generous; anything larger
// in a length field is damage or a protocol break.
const maxPayload = 64 << 20

// NewConn wraps rw. link may be nil for a perfect wire.
func NewConn(rw io.ReadWriter, link *fault.Link) *Conn {
	return &Conn{rw: rw, link: link}
}

// Send frames payload and writes it in one Write call, applying the
// link's verdict.
func (c *Conn) Send(payload []byte) error {
	if len(payload) == 0 || len(payload) > maxPayload {
		return fmt.Errorf("frame: bad payload size %d", len(payload))
	}
	c.sendSeq++
	var seq [8]byte
	binary.LittleEndian.PutUint64(seq[:], c.sendSeq)
	f := appendFrame(make([]byte, 0, Overhead+8+len(payload)), seq[:], payload)

	v := c.link.Next()
	if v.Delay > 0 {
		time.Sleep(v.Delay)
	}
	switch {
	case v.Drop:
		return nil
	case v.Hold && c.held == nil:
		c.held = f
		return nil
	}
	if _, err := c.rw.Write(f); err != nil {
		return err
	}
	if v.Dup {
		if _, err := c.rw.Write(f); err != nil {
			return err
		}
	}
	if c.held != nil {
		held := c.held
		c.held = nil
		if _, err := c.rw.Write(held); err != nil {
			return err
		}
		c.link.Released()
	}
	return nil
}

// Recv reads the next in-order payload. Duplicates are skipped silently;
// anything else out of order is ErrBroken. I/O errors, including read
// deadlines (the callers' partition detector), pass through.
func (c *Conn) Recv() ([]byte, error) {
	for {
		body, err := Read(c.rw, 8+maxPayload)
		if err != nil {
			return nil, err
		}
		if len(body) < 9 {
			return nil, fmt.Errorf("%w: frame length %d", ErrBroken, len(body))
		}
		seq := binary.LittleEndian.Uint64(body)
		if seq <= c.recvSeq {
			continue // duplicate delivery
		}
		if seq != c.recvSeq+1 {
			return nil, fmt.Errorf("%w: sequence gap (%d after %d)", ErrBroken, seq, c.recvSeq)
		}
		c.recvSeq = seq
		return body[8:], nil
	}
}
