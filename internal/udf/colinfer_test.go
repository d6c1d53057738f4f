package udf

import (
	"math/rand"
	"path/filepath"
	"testing"

	"tensorbase/internal/exec"
	"tensorbase/internal/nn"
	"tensorbase/internal/storage"
	"tensorbase/internal/table"
)

// featHeap materialises rows into a heap so scans go through the real
// page-pinned path that supports columnar batching.
func featHeap(t *testing.T, rows []table.Tuple) *table.Heap {
	t.Helper()
	d, err := storage.OpenDisk(filepath.Join(t.TempDir(), "t.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	h, err := table.NewHeap(storage.NewBufferPool(d, 8), featSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if _, err := h.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestInferOpColumnarBitIdenticalToRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	m := nn.FraudFC(rng, 32)
	rows := featRows(rng, 103, 28) // several batches, ragged tail
	h := featHeap(t, rows)

	rowOp, err := NewInferOp(exec.NewMemScan(featSchema(), rows), NewModelUDF(m, nil), "features", 8)
	if err != nil {
		t.Fatal(err)
	}
	want := collectPreds(t, rowOp)
	if rowOp.Stats().ColBatches.Load() != 0 {
		t.Fatal("MemScan child must use the row path")
	}

	colOp, err := NewInferOp(exec.NewHeapScan(h), NewModelUDF(m, nil), "features", 8)
	if err != nil {
		t.Fatal(err)
	}
	got := collectPreds(t, colOp)
	if colOp.Stats().ColBatches.Load() == 0 {
		t.Fatal("HeapScan child must engage the columnar path")
	}
	if len(got) != len(want) {
		t.Fatalf("columnar %d rows, row path %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d[%d]: columnar %v != row path %v (must be bit-identical)",
					i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestInferOpColumnarThroughScanWhere: a heap scan that evaluates a WHERE
// predicate is still a ColBatcher, so PREDICT takes the columnar path over
// the rows the predicate keeps, bit-identical to the row path. A MemScan
// carrying the same predicate — a source that cannot batch columnarly —
// falls back to the row path with identical results.
func TestInferOpColumnarThroughScanWhere(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	m := nn.FraudFC(rng, 16)
	rows := featRows(rng, 40, 28)
	h := featHeap(t, rows)
	even := &table.ColPred{Col: 0, Pass: func(v table.Value) bool { return v.Int%2 == 0 }, Desc: "id % 2 = 0"}

	scan := exec.NewHeapScan(h)
	scan.SetWhere(even)
	colOp, err := NewInferOp(scan, NewModelUDF(m, nil), "features", 8)
	if err != nil {
		t.Fatal(err)
	}
	colRows, err := exec.Collect(colOp)
	if err != nil {
		t.Fatal(err)
	}
	if colOp.Stats().ColBatches.Load() == 0 {
		t.Fatal("a heap scan with a predicate must engage the columnar path")
	}

	mem := exec.NewMemScan(featSchema(), rows)
	mem.SetWhere(even)
	rowOp, err := NewInferOp(mem, NewModelUDF(m, nil), "features", 8)
	if err != nil {
		t.Fatal(err)
	}
	rowRows, err := exec.Collect(rowOp)
	if err != nil {
		t.Fatal(err)
	}
	if rowOp.Stats().ColBatches.Load() != 0 {
		t.Fatal("a MemScan child must use the row path")
	}

	if len(colRows) != 20 || len(rowRows) != 20 {
		t.Fatalf("columnar %d rows, row path %d, want 20 each", len(colRows), len(rowRows))
	}
	for i := range rowRows {
		if colRows[i][0].Int != rowRows[i][0].Int || colRows[i][0].Int%2 != 0 {
			t.Fatalf("row %d: columnar id %d, row path id %d", i, colRows[i][0].Int, rowRows[i][0].Int)
		}
		got, want := colRows[i][len(colRows[i])-1].Vec, rowRows[i][len(rowRows[i])-1].Vec
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d[%d]: columnar %v != row path %v (must be bit-identical)", i, j, got[j], want[j])
			}
		}
	}
}
