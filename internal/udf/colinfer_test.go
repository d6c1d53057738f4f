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

// TestInferOpColumnarFallsBackBehindFilter: a non-columnar child (here a
// Filter) must silently use the row path with identical results.
func TestInferOpColumnarFallsBackBehindFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	m := nn.FraudFC(rng, 16)
	rows := featRows(rng, 40, 28)
	h := featHeap(t, rows)
	pred := func(tp table.Tuple) (bool, error) { return tp[0].Int%2 == 0, nil }

	filtered := exec.NewFilter(exec.NewHeapScan(h), pred)
	op, err := NewInferOp(filtered, NewModelUDF(m, nil), "features", 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if op.Stats().ColBatches.Load() != 0 {
		t.Fatal("filtered child must fall back to the row path")
	}
	if len(got) != 20 {
		t.Fatalf("got %d rows, want 20", len(got))
	}
	for _, r := range got {
		if r[0].Int%2 != 0 {
			t.Fatalf("filter leaked row id %d", r[0].Int)
		}
	}
}
