package table

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"tensorbase/internal/lifecycle"
)

func idIs(k int64) *ColPred {
	return &ColPred{Col: 0, Pass: func(v Value) bool { return v.Int == k }, Desc: "id = k"}
}

func idMod(m int64) *ColPred {
	return &ColPred{Col: 0, Pass: func(v Value) bool { return v.Int%m == 0 }, Desc: "id % m = 0"}
}

// A predicate scan yields exactly the passing rows, in heap order, through
// both Next and NextColumnar (batches that fill mid-page resume there),
// and counts every visible record it examined.
func TestScanWhereKeepsPassingRows(t *testing.T) {
	const n, w = 300, 4
	h, s := colTestHeap(t, n, w)
	featIdx := s.ColIndex("features")

	row := h.ScanWhere(CSNMax, idMod(7))
	var rowIDs []int64
	for {
		tup, ok, err := row.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rowIDs = append(rowIDs, tup[0].Int)
	}
	if len(rowIDs) != (n+6)/7 || row.Examined() != n {
		t.Fatalf("row scan kept %d rows, examined %d", len(rowIDs), row.Examined())
	}
	for i, id := range rowIDs {
		if id != int64(7*i) {
			t.Fatalf("row %d: id %d, want %d", i, id, 7*i)
		}
	}

	col := h.ScanWhere(CSNMax, idMod(7))
	var colIDs []int64
	for {
		cb, err := NewColBatch(s, featIdx, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := col.NextColumnar(cb)
		if err != nil {
			t.Fatal(err)
		}
		for _, tup := range cb.Tuples {
			if tup[featIdx].Vec[0] != float32(tup[0].Int*w) {
				t.Fatalf("row id %d decoded features %v", tup[0].Int, tup[featIdx].Vec)
			}
			colIDs = append(colIDs, tup[0].Int)
		}
		if got < 5 {
			break
		}
	}
	if len(colIDs) != len(rowIDs) || col.Examined() != n {
		t.Fatalf("columnar scan kept %d rows (row scan %d), examined %d", len(colIDs), len(rowIDs), col.Examined())
	}
	for i := range rowIDs {
		if colIDs[i] != rowIDs[i] {
			t.Fatalf("row %d: columnar id %d, row scan id %d", i, colIDs[i], rowIDs[i])
		}
	}

	none := h.ScanWhere(CSNMax, idIs(-1))
	if _, ok, err := none.Next(); ok || err != nil {
		t.Fatalf("scan matching nothing: ok=%v err=%v", ok, err)
	}
	if none.Examined() != n {
		t.Fatalf("scan matching nothing examined %d rows, want %d", none.Examined(), n)
	}
}

// A predicate scan validates every visible record as Decode would, not
// only the ones it keeps: a structurally corrupt record fails the scan even
// when the predicate rejects its row.
func TestScanWhereRejectsCorruptRecordItSkips(t *testing.T) {
	s := MustSchema(Column{"id", Int64}, Column{"features", FloatVec})
	good, err := Encode(s, Tuple{IntVal(1), VecVal([]float32{1, 2})})
	if err != nil {
		t.Fatal(err)
	}
	var id99 [8]byte
	binary.LittleEndian.PutUint64(id99[:], 99)
	corrupt := map[string][]byte{
		// id 99, a vector claiming 5 floats but carrying 1.
		"truncated vector": append(append(id99[:], 5), 0, 0, 0, 0),
		// id 99, an empty vector, then junk.
		"trailing bytes": append(append(id99[:], 0), 0xde, 0xad),
	}
	for name, bad := range corrupt {
		h, err := NewHeap(newPool(t, 4), s)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range [][]byte{good, bad, good} {
			if _, err := h.InsertRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := drainRows(h.ScanWhere(CSNMax, idIs(1))); err == nil {
			t.Fatalf("%s: row scan whose predicate skips the corrupt record succeeded", name)
		}
		cb, err := NewColBatch(s, 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.ScanWhere(CSNMax, idIs(1)).NextColumnar(cb); err == nil {
			t.Fatalf("%s: columnar scan whose predicate skips the corrupt record succeeded", name)
		}
	}
}

// drainRows runs a scan to its end or first error.
func drainRows(sc *Scanner) (int, bool, error) {
	n := 0
	for {
		_, ok, err := sc.Next()
		if err != nil || !ok {
			return n, ok, err
		}
		n++
	}
}

// A selective scan walks many pages inside one Next call; cancellation is
// observed between pages.
func TestScanWhereObservesCancellation(t *testing.T) {
	h, _ := colTestHeap(t, 300, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tok, stop := lifecycle.Watch(ctx)
	defer stop()
	sc := h.ScanWhere(CSNMax, idIs(-1))
	sc.SetCancel(tok)
	if _, _, err := sc.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned %v", err)
	}
}
