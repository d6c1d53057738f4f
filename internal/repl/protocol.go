package repl

import (
	"encoding/binary"
	"fmt"
	"math"

	"tensorbase/internal/blockstore"
	"tensorbase/internal/frame"
)

// Wire protocol. Both ends talk over a frame.Conn, the transport the shard
// RPC uses, so every message travels as one sequence-numbered, CRC-framed
// blob:
//
//	u32 len | u64 seq | u8 msgType | fields | u32 CRC32-C(seq|msgType|fields)
//
// Each direction numbers its own frames. The receiver accepts only
// seq == last+1: a duplicate (seq ≤ last) is discarded, a gap or reorder
// resets the stream and the replica reconnects with its applied CSN. The
// replica→primary direction has two messages: the hello, and the
// block-request that answers a resync. Fields are fixed-width
// little-endian integers and frame.AppendBytes length-prefixed bytes.
//
// A group message carries one published commit verbatim: the CSN and its
// encoded WAL records. Model weights need no side channel — a LOAD MODEL
// group already contains its new weight blocks as RecBlock records and the
// manifest inside the RecLoadModel record, so the stream ships exactly the
// bytes the primary's own WAL holds, deduplicated at the source (blocks
// the primary already had are not re-logged, hence not re-shipped).
//
// A resync is a handshake: the snapshot message carries the table records
// plus each model's manifest (names + block hashes, no weights); the
// replica answers with the hashes it is missing (always — an empty request
// keeps the exchange symmetric); the primary replies with exactly those
// blocks. The replica verifies each block against its requested hash,
// synthesizes RecBlock records, and applies the whole snapshot as one
// atomic group. A replica that already holds most blocks (it fell behind,
// it is a restarted twin, the models share layers) fetches only the delta.

const (
	msgHello     byte = 1 // replica → primary: u64 appliedCSN
	msgGroup     byte = 2 // u64 csn | encoded WAL records
	msgHeartbeat byte = 3 // u64 committedCSN
	msgResync    byte = 4 // u64 snapCSN | recs | model manifests
	msgBlockReq  byte = 5 // replica → primary: requested block hashes
	msgBlocks    byte = 6 // (hash, payload) pairs
)

// modelManifest is one model riding a resync message: identity plus the
// encoded block manifest. Weight bytes travel separately, on demand, in the
// msgBlockReq/msgBlocks exchange.
type modelManifest struct {
	Name     string
	Acc      float64
	Manifest []byte
}

// groupMsg is one shipped commit group: the published WAL records,
// verbatim.
type groupMsg struct {
	CSN  uint64
	Recs [][]byte
}

func encodeGroup(g *groupMsg) []byte {
	b := binary.LittleEndian.AppendUint64([]byte{msgGroup}, g.CSN)
	return appendRecs(b, g.Recs)
}

func decodeGroup(b []byte) (*groupMsg, error) {
	if len(b) < 9 {
		return nil, fmt.Errorf("%w: short group", frame.ErrBroken)
	}
	g := &groupMsg{CSN: binary.LittleEndian.Uint64(b[1:9])}
	recs, b, err := readRecs(b[9:])
	if err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing group bytes", frame.ErrBroken, len(b))
	}
	g.Recs = recs
	return g, nil
}

// appendRecs appends a record list: uvarint count, then one field each.
func appendRecs(b []byte, recs [][]byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(recs)))
	for _, rec := range recs {
		b = frame.AppendBytes(b, rec)
	}
	return b
}

func readRecs(b []byte) ([][]byte, []byte, error) {
	n, b, err := frame.ReadUvarint(b)
	if err != nil || n > 1<<24 {
		return nil, nil, fmt.Errorf("%w: bad record count", frame.ErrBroken)
	}
	var recs [][]byte
	for i := uint64(0); i < n; i++ {
		var rec []byte
		if rec, b, err = frame.ReadBytes(b); err != nil {
			return nil, nil, err
		}
		recs = append(recs, rec)
	}
	return recs, b, nil
}

// resyncMsg is a whole snapshot: recs create and fill every table; models
// arrive as manifests whose missing blocks the replica then requests.
type resyncMsg struct {
	CSN    uint64
	Recs   [][]byte
	Models []modelManifest
}

func encodeResync(m *resyncMsg) []byte {
	b := binary.LittleEndian.AppendUint64([]byte{msgResync}, m.CSN)
	b = appendRecs(b, m.Recs)
	b = binary.AppendUvarint(b, uint64(len(m.Models)))
	for _, mb := range m.Models {
		b = frame.AppendBytes(b, []byte(mb.Name))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(mb.Acc))
		b = frame.AppendBytes(b, mb.Manifest)
	}
	return b
}

func decodeResync(b []byte) (*resyncMsg, error) {
	if len(b) < 9 {
		return nil, fmt.Errorf("%w: short resync", frame.ErrBroken)
	}
	m := &resyncMsg{CSN: binary.LittleEndian.Uint64(b[1:9])}
	recs, b, err := readRecs(b[9:])
	if err != nil {
		return nil, err
	}
	m.Recs = recs
	n, b, err := frame.ReadUvarint(b)
	if err != nil || n > 1<<16 {
		return nil, fmt.Errorf("%w: bad resync model count", frame.ErrBroken)
	}
	for i := uint64(0); i < n; i++ {
		name, rest, err := frame.ReadBytes(b)
		if err != nil {
			return nil, err
		}
		if len(rest) < 8 {
			return nil, fmt.Errorf("%w: truncated model accuracy", frame.ErrBroken)
		}
		acc := math.Float64frombits(binary.LittleEndian.Uint64(rest))
		data, rest, err := frame.ReadBytes(rest[8:])
		if err != nil {
			return nil, err
		}
		b = rest
		m.Models = append(m.Models, modelManifest{Name: string(name), Acc: acc, Manifest: data})
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing resync bytes", frame.ErrBroken, len(b))
	}
	return m, nil
}

// blockReq is the replica's half of the resync block fetch: the hashes of
// every manifest-referenced block it does not hold. Always sent, even
// empty, so the primary's read after a resync never hangs on a fully
// deduplicated replica.
func encodeBlockReq(hashes []blockstore.Hash) []byte {
	b := binary.AppendUvarint([]byte{msgBlockReq}, uint64(len(hashes)))
	for _, h := range hashes {
		b = append(b, h[:]...)
	}
	return b
}

func decodeBlockReq(b []byte) ([]blockstore.Hash, error) {
	if len(b) < 1 || b[0] != msgBlockReq {
		return nil, fmt.Errorf("%w: bad block request", frame.ErrBroken)
	}
	const hashLen = len(blockstore.Hash{})
	n, b, err := frame.ReadUvarint(b[1:])
	// Divide rather than multiply, so a huge count cannot wrap.
	if err != nil || len(b)%hashLen != 0 || n != uint64(len(b)/hashLen) {
		return nil, fmt.Errorf("%w: bad block request count", frame.ErrBroken)
	}
	hashes := make([]blockstore.Hash, n)
	for i := range hashes {
		copy(hashes[i][:], b[i*hashLen:])
	}
	return hashes, nil
}

// blocksMsg is the primary's reply: the requested blocks as (hash, encoded
// payload) pairs, in request order.
type blocksMsg struct {
	Hashes []blockstore.Hash
	Data   [][]byte
}

func encodeBlocks(m *blocksMsg) []byte {
	b := binary.AppendUvarint([]byte{msgBlocks}, uint64(len(m.Hashes)))
	for i, h := range m.Hashes {
		b = frame.AppendBytes(append(b, h[:]...), m.Data[i])
	}
	return b
}

func decodeBlocks(b []byte) (*blocksMsg, error) {
	if len(b) < 1 || b[0] != msgBlocks {
		return nil, fmt.Errorf("%w: bad blocks message", frame.ErrBroken)
	}
	n, b, err := frame.ReadUvarint(b[1:])
	if err != nil || n > 1<<20 {
		return nil, fmt.Errorf("%w: bad blocks count", frame.ErrBroken)
	}
	m := &blocksMsg{}
	for i := uint64(0); i < n; i++ {
		var h blockstore.Hash
		if len(b) < len(h) {
			return nil, fmt.Errorf("%w: truncated block hash", frame.ErrBroken)
		}
		copy(h[:], b)
		data, rest, err := frame.ReadBytes(b[len(h):])
		if err != nil {
			return nil, err
		}
		b = rest
		m.Hashes = append(m.Hashes, h)
		m.Data = append(m.Data, data)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing blocks bytes", frame.ErrBroken, len(b))
	}
	return m, nil
}

// encodeCSN builds the two one-number messages: the hello (the replica's
// applied CSN) and the heartbeat (the primary's committed CSN).
func encodeCSN(msg byte, csn uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{msg}, csn)
}

func decodeCSN(msg byte, b []byte) (uint64, error) {
	if len(b) != 9 || b[0] != msg {
		return 0, fmt.Errorf("%w: bad message %d", frame.ErrBroken, msg)
	}
	return binary.LittleEndian.Uint64(b[1:]), nil
}
