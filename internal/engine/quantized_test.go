package engine

import (
	"math"
	"strings"
	"sync"
	"testing"

	"tensorbase/internal/nn"
)

// TestPredictQuantizedAccuracyGate is the accuracy-delta gate for quantized
// serving: predictions from the int8-resident twin must stay within a fixed
// epsilon of the f32 path element-wise, and agree with it on the top class
// for at least 99% of the demo table's rows. A quantization or kernel
// regression that shifts predictions materially fails here, not in
// production.
func TestPredictQuantizedAccuracyGate(t *testing.T) {
	db := openDB(t, Options{InferBatch: 32})
	loadFraud(t, db, 200)
	f32 := mustExec(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns")
	q8 := mustExec(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) OPTIONS (quantized) FROM txns")
	if len(q8.Rows) != len(f32.Rows) {
		t.Fatalf("quantized %d rows, f32 %d", len(q8.Rows), len(f32.Rows))
	}
	const epsilon = 0.05
	agree := 0
	for i := range f32.Rows {
		a, b := f32.Rows[i][1].Vec, q8.Rows[i][1].Vec
		if len(a) != len(b) {
			t.Fatalf("row %d: widths %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			if d := math.Abs(float64(a[j] - b[j])); d > epsilon {
				t.Fatalf("row %d class %d: f32 %v vs quantized %v (|Δ| %.4f > %.2f)",
					i, j, a[j], b[j], d, epsilon)
			}
		}
		if argmax32(a) == argmax32(b) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(f32.Rows)); frac < 0.99 {
		t.Fatalf("top-class agreement %.3f, want >= 0.99", frac)
	}
}

func argmax32(v []float32) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// TestPredictQuantizedBitIdenticalAcrossModes: per-row activation scales
// make quantized outputs a function of each row alone, so plain, coalesced,
// and cached/coalesced executions must produce bit-identical predictions.
func TestPredictQuantizedBitIdenticalAcrossModes(t *testing.T) {
	const q = "SELECT id, PREDICT(Fraud-FC-32, features) OPTIONS (quantized) FROM txns"
	run := func(opts Options) [][]float32 {
		opts.InferBatch = 16
		db := openDB(t, opts)
		loadFraud(t, db, 150)
		res := mustExec(t, db, q)
		out := make([][]float32, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r[1].Vec
		}
		return out
	}
	serial := run(Options{DisablePredictCoalesce: true})
	coalescedOnly := run(Options{})
	coalesced := run(Options{ResultCache: true})
	for name, got := range map[string][][]float32{"coalesced": coalescedOnly, "cached+coalesced": coalesced} {
		if len(got) != len(serial) {
			t.Fatalf("%s: %d rows vs %d", name, len(got), len(serial))
		}
		for i := range serial {
			for j := range serial[i] {
				if math.Float32bits(got[i][j]) != math.Float32bits(serial[i][j]) {
					t.Fatalf("%s row %d[%d]: %x vs serial %x (must be bit-identical)",
						name, i, j, math.Float32bits(got[i][j]), math.Float32bits(serial[i][j]))
				}
			}
		}
	}
}

// TestPredictQuantizedCacheIsolation: the quantized mode must never serve
// results cached by the f32 mode (and vice versa) — their outputs differ in
// bits, keyed apart by the mode-specific cache key.
func TestPredictQuantizedCacheIsolation(t *testing.T) {
	db := openDB(t, Options{InferBatch: 16, ResultCache: true})
	loadFraud(t, db, 50)
	f32a := mustExec(t, db, "SELECT PREDICT(Fraud-FC-32, features) FROM txns")
	// Repeat f32 so its cache is warm, then ask quantized: every quantized
	// row must be a miss on its own cache, not a hit on the f32 one.
	mustExec(t, db, "SELECT PREDICT(Fraud-FC-32, features) FROM txns")
	misses := db.Stats().CacheMisses
	q8 := mustExec(t, db, "SELECT PREDICT(Fraud-FC-32, features) OPTIONS (quantized) FROM txns")
	if got := db.Stats().CacheMisses - misses; got != 50 {
		t.Fatalf("quantized run had %d cache misses, want 50 (own cache, cold)", got)
	}
	identical := true
	for i := range f32a.Rows {
		for j := range f32a.Rows[i][0].Vec {
			if math.Float32bits(f32a.Rows[i][0].Vec[j]) != math.Float32bits(q8.Rows[i][0].Vec[j]) {
				identical = false
			}
		}
	}
	if identical {
		t.Fatal("quantized output bit-identical to f32 across the whole table — suspicious (cache bleed?)")
	}
}

func TestPredictQuantizedEngineDefault(t *testing.T) {
	db := openDB(t, Options{InferBatch: 16, PredictQuantized: true})
	loadFraud(t, db, 30)
	base := db.Metrics().Counter("tensorbase_predict_quantized_total")
	res := mustExec(t, db, "SELECT PREDICT(Fraud-FC-32, features) FROM txns")
	if len(res.Rows) != 30 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if got := db.Metrics().Counter("tensorbase_predict_quantized_total") - base; got != 1 {
		t.Fatalf("tensorbase_predict_quantized_total rose by %d, want 1", got)
	}
}

func TestPredictQuantizedErrors(t *testing.T) {
	db := openDB(t, Options{})
	loadFraud(t, db, 10)
	if _, err := db.Exec("SELECT PREDICT(ghost, features) OPTIONS (quantized) FROM txns"); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := db.Exec("SELECT PREDICT(Fraud-FC-32, features) OPTIONS (turbo) FROM txns"); err == nil {
		t.Fatal("unknown PREDICT option must error")
	}
}

// TestPredictPrecisionLifecycle: both serving precisions of a model come
// and go together. After DropModel neither serves; reloading the name serves
// both again from cold per-precision caches; a duplicate load changes
// nothing; a model without a quantized twin serves f32 only.
func TestPredictPrecisionLifecycle(t *testing.T) {
	const (
		f32Q = "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns"
		q8Q  = "SELECT id, PREDICT(Fraud-FC-32, features) OPTIONS (quantized) FROM txns"
		rows = 20
	)
	db := openDB(t, Options{InferBatch: 8, ResultCache: true})
	m, _ := loadFraud(t, db, rows)
	// coldRun runs q and checks every row missed its own cache.
	coldRun := func(q string) *Result {
		t.Helper()
		before := db.Stats()
		res := mustExec(t, db, q)
		after := db.Stats()
		if h, miss := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses; h != 0 || miss != rows {
			t.Fatalf("%s: %d hits, %d misses, want a cold cache (0/%d)", q, h, miss, rows)
		}
		return res
	}
	f32Before, q8Before := coldRun(f32Q), coldRun(q8Q)
	mustExec(t, db, f32Q) // warm both caches before the drop
	mustExec(t, db, q8Q)

	if err := db.DropModel("Fraud-FC-32"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{f32Q, q8Q} {
		if _, err := db.Exec(q); err == nil || !strings.Contains(err.Error(), "not loaded") {
			t.Fatalf("%s after DropModel: err = %v, want \"not loaded\"", q, err)
		}
	}

	if err := db.LoadModel(m, 0.95); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q    string
		want *Result
	}{{f32Q, f32Before}, {q8Q, q8Before}} {
		got := coldRun(c.q)
		for i := range c.want.Rows {
			a, b := c.want.Rows[i][1].Vec, got.Rows[i][1].Vec
			for j := range a {
				if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
					t.Fatalf("%s row %d: reloaded model predicts %v, want %v", c.q, i, b, a)
				}
			}
		}
	}

	// A duplicate load is rejected and leaves the served entry (and its
	// now-warm caches) in place.
	if err := db.LoadModel(m, 0.95); err == nil {
		t.Fatal("loading a model name twice must error")
	}
	for _, q := range []string{f32Q, q8Q} {
		before := db.Stats().CacheHits
		mustExec(t, db, q)
		if got := db.Stats().CacheHits - before; got != rows {
			t.Fatalf("%s after a rejected duplicate load: %d cache hits, want %d", q, got, rows)
		}
	}

	ident, err := nn.NewModel("ident", []int{1, 28}, slowLayer{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nn.QuantizeResident(ident); err == nil {
		t.Fatal("test premise: the identity test layer must not quantize")
	}
	if err := db.LoadModel(ident, 0); err != nil {
		t.Fatal(err)
	}
	if res := mustExec(t, db, "SELECT PREDICT(ident, features) FROM txns"); len(res.Rows) != rows {
		t.Fatalf("f32 PREDICT over the twinless model: %d rows", len(res.Rows))
	}
	_, err = db.Exec("SELECT PREDICT(ident, features) OPTIONS (quantized) FROM txns")
	if err == nil || !strings.Contains(err.Error(), "no quantized twin") {
		t.Fatalf("quantized PREDICT over the twinless model: err = %v, want \"no quantized twin\"", err)
	}
}

// TestPredictDuringDropAndReload: PREDICTs at both precisions and metric
// scrapes race a model being dropped and reloaded. Each query either
// serves every row or fails with "not loaded"; run under -race.
func TestPredictDuringDropAndReload(t *testing.T) {
	const rows = 16
	db := openDB(t, Options{InferBatch: 8, ResultCache: true})
	m, _ := loadFraud(t, db, rows)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, q := range []string{
		"SELECT id, PREDICT(Fraud-FC-32, features) FROM txns",
		"SELECT id, PREDICT(Fraud-FC-32, features) OPTIONS (quantized) FROM txns",
	} {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.Exec(q)
				switch {
				case err != nil && !strings.Contains(err.Error(), "not loaded"):
					t.Errorf("%s: %v", q, err)
					return
				case err == nil && len(res.Rows) != rows:
					t.Errorf("%s: %d rows, want %d", q, len(res.Rows), rows)
					return
				}
				db.Metrics()
			}
		}(q)
	}
	for i := 0; i < 10; i++ {
		if err := db.DropModel("Fraud-FC-32"); err != nil {
			t.Error(err)
			break
		}
		if err := db.LoadModel(m, 0.95); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
