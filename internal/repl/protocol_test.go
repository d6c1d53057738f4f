package repl

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"tensorbase/internal/blockstore"
	"tensorbase/internal/frame"
)

func TestGroupRoundTrip(t *testing.T) {
	g := &groupMsg{
		CSN:  42,
		Recs: [][]byte{[]byte("rec-one"), []byte("rec-two"), []byte("model-rec")},
	}
	got, err := decodeGroup(encodeGroup(g))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, got) {
		t.Fatalf("group round-trip:\nsent %+v\ngot  %+v", g, got)
	}
}

func TestGroupRejectsTrailingBytes(t *testing.T) {
	b := encodeGroup(&groupMsg{CSN: 1, Recs: [][]byte{[]byte("r")}})
	if _, err := decodeGroup(append(b, 0xEE)); !errors.Is(err, frame.ErrBroken) {
		t.Fatalf("trailing bytes = %v, want frame.ErrBroken", err)
	}
}

func TestResyncRoundTrip(t *testing.T) {
	m := &resyncMsg{
		CSN:  99,
		Recs: [][]byte{[]byte("create"), []byte("insert")},
		Models: []modelManifest{
			{Name: "Fraud-FC-32", Acc: 0.95, Manifest: []byte("TBMF-manifest")},
		},
	}
	got, err := decodeResync(encodeResync(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("resync round-trip:\nsent %+v\ngot  %+v", m, got)
	}
}

func TestResyncRejectsTruncation(t *testing.T) {
	b := encodeResync(&resyncMsg{CSN: 1, Models: []modelManifest{{Name: "m", Manifest: []byte("d")}}})
	for cut := 10; cut < len(b); cut += 3 {
		if _, err := decodeResync(b[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
}

func TestBlockReqRoundTrip(t *testing.T) {
	var h1, h2 blockstore.Hash
	h1[0], h2[31] = 0xAB, 0xCD
	got, err := decodeBlockReq(encodeBlockReq([]blockstore.Hash{h1, h2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != h1 || got[1] != h2 {
		t.Fatalf("block request round-trip: %v", got)
	}
	// Empty requests are legal — a fully deduplicated replica sends one.
	if got, err := decodeBlockReq(encodeBlockReq(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty block request round-trip: (%v, %v)", got, err)
	}
	if _, err := decodeBlockReq(encodeBlockReq([]blockstore.Hash{h1})[:20]); !errors.Is(err, frame.ErrBroken) {
		t.Fatalf("truncated block request = %v, want frame.ErrBroken", err)
	}
}

func TestBlocksRoundTrip(t *testing.T) {
	var h blockstore.Hash
	h[7] = 0x7E
	m := &blocksMsg{Hashes: []blockstore.Hash{h}, Data: [][]byte{[]byte("payload")}}
	got, err := decodeBlocks(encodeBlocks(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("blocks round-trip:\nsent %+v\ngot  %+v", m, got)
	}
	if _, err := decodeBlocks(append(encodeBlocks(m), 0xEE)); !errors.Is(err, frame.ErrBroken) {
		t.Fatalf("trailing blocks bytes = %v, want frame.ErrBroken", err)
	}
}

func TestHelloAndHeartbeatRoundTrip(t *testing.T) {
	csn, err := decodeCSN(msgHello, encodeCSN(msgHello, 1234))
	if err != nil || csn != 1234 {
		t.Fatalf("hello round-trip = (%d, %v)", csn, err)
	}
	if _, err := decodeCSN(msgHello, []byte{msgHello, 1}); !errors.Is(err, frame.ErrBroken) {
		t.Fatalf("short hello = %v", err)
	}
	csn, err = decodeCSN(msgHeartbeat, encodeCSN(msgHeartbeat, 77))
	if err != nil || csn != 77 {
		t.Fatalf("heartbeat round-trip = (%d, %v)", csn, err)
	}
	if _, err := decodeCSN(msgHeartbeat, encodeCSN(msgHello, 77)); !errors.Is(err, frame.ErrBroken) {
		t.Fatalf("hello decoded as heartbeat = %v", err)
	}
}

// FuzzReplDecode feeds arbitrary payloads to the decoder of the message
// type their first byte names, as the replica and the primary do with
// every frame they receive. No input may panic, and whatever decodes must
// re-encode to exactly the bytes received.
func FuzzReplDecode(f *testing.F) {
	var h blockstore.Hash
	h[3] = 0x33
	f.Add(encodeCSN(msgHello, 7))
	f.Add(encodeCSN(msgHeartbeat, 9))
	f.Add(encodeGroup(&groupMsg{CSN: 4, Recs: [][]byte{[]byte("rec")}}))
	f.Add(encodeResync(&resyncMsg{CSN: 5, Recs: [][]byte{[]byte("create")},
		Models: []modelManifest{{Name: "m", Acc: 0.5, Manifest: []byte("TBMF")}}}))
	f.Add(encodeBlockReq([]blockstore.Hash{h}))
	f.Add(encodeBlocks(&blocksMsg{Hashes: []blockstore.Hash{h}, Data: [][]byte{[]byte("blk")}}))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		var out []byte
		switch in[0] {
		case msgHello, msgHeartbeat:
			if csn, err := decodeCSN(in[0], in); err == nil {
				out = encodeCSN(in[0], csn)
			}
		case msgGroup:
			if g, err := decodeGroup(in); err == nil {
				out = encodeGroup(g)
			}
		case msgResync:
			if m, err := decodeResync(in); err == nil {
				out = encodeResync(m)
			}
		case msgBlockReq:
			if hs, err := decodeBlockReq(in); err == nil {
				out = encodeBlockReq(hs)
			}
		case msgBlocks:
			if m, err := decodeBlocks(in); err == nil {
				out = encodeBlocks(m)
			}
		}
		if out != nil && !bytes.Equal(out, in) {
			t.Fatalf("decoded message re-encodes to %x, received %x", out, in)
		}
	})
}
