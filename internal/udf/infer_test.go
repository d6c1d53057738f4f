package udf

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tensorbase/internal/cache"
	"tensorbase/internal/exec"
	"tensorbase/internal/nn"
	"tensorbase/internal/table"
	"tensorbase/internal/tensor"
)

// countingUDF wraps a UDF and records every Apply invocation and its batch
// size, so tests can assert exactly when the model ran.
type countingUDF struct {
	inner UDF
	calls atomic.Int64
	mu    sync.Mutex
	sizes []int
}

func (c *countingUDF) Name() string { return c.inner.Name() }

func (c *countingUDF) Apply(in *tensor.Tensor) (*tensor.Tensor, error) {
	c.calls.Add(1)
	c.mu.Lock()
	c.sizes = append(c.sizes, in.Dim(0))
	c.mu.Unlock()
	return c.inner.Apply(in)
}

func (c *countingUDF) batchSizes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.sizes...)
}

// collectPreds drains op and returns the prediction column per row.
func collectPreds(t *testing.T, op exec.Operator) [][]float32 {
	t.Helper()
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float32, len(rows))
	for i, r := range rows {
		out[i] = r[len(r)-1].Vec
	}
	return out
}

// failingChild yields its rows, then fails every later Next with err, and
// counts Close calls.
type failingChild struct {
	*exec.MemScan
	err    error
	closes int
}

func (f *failingChild) Next() (table.Tuple, bool, error) {
	t, ok, err := f.MemScan.Next()
	if err != nil || !ok {
		return nil, false, f.err
	}
	return t, true, nil
}

func (f *failingChild) Close() error {
	f.closes++
	return f.MemScan.Close()
}

// TestInferOpChildErrorPropagatesAndCloses: a child error mid-stream
// surfaces from Next after the earlier batches' rows, and Close closes the
// child exactly once, even when called twice.
func TestInferOpChildErrorPropagatesAndCloses(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := nn.FraudFC(rng, 16)
	boom := errors.New("disk on fire")
	child := &failingChild{MemScan: exec.NewMemScan(featSchema(), featRows(rng, 10, 28)), err: boom}
	op, err := NewInferOp(child, NewModelUDF(m, nil), "features", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := op.Next()
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the child's error", err)
			}
			break
		}
		if !ok {
			t.Fatal("stream ended without surfacing the child error")
		}
		n++
	}
	if n != 8 {
		t.Fatalf("emitted %d rows before the error, want the two full batches (8)", n)
	}
	if _, ok, err := op.Next(); ok || err != nil {
		t.Fatalf("Next after the error: ok=%v err=%v, want end of stream", ok, err)
	}
	for i := 0; i < 2; i++ {
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if child.closes != 1 {
		t.Fatalf("child closed %d times, want 1", child.closes)
	}
}

// warmCache inserts each row's exact feature vector with a recognisable
// prediction.
func warmCache(t *testing.T, rc *cache.ResultCache, rows []table.Tuple, tag float32) {
	t.Helper()
	for i, r := range rows {
		if err := rc.Insert(r[1].Vec, []float32{tag, float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInferOpCacheAllHitsSkipsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := nn.FraudFC(rng, 16)
	rows := featRows(rng, 20, 28)
	rc, err := cache.NewHNSW(28, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	warmCache(t, rc, rows, 7)
	cu := &countingUDF{inner: NewModelUDF(m, nil)}
	op, err := NewInferOp(exec.NewMemScan(featSchema(), rows), cu, "features", 8,
		WithCache(rc))
	if err != nil {
		t.Fatal(err)
	}
	preds := collectPreds(t, op)
	if got := cu.calls.Load(); got != 0 {
		t.Fatalf("all-hit batches ran the model %d times", got)
	}
	for i, p := range preds {
		if len(p) != 2 || p[0] != 7 || p[1] != float32(i) {
			t.Fatalf("row %d: prediction %v, want cached [7 %d]", i, p, i)
		}
	}
	st := op.Stats()
	if st.Hits.Load() != 20 || st.Misses.Load() != 0 {
		t.Fatalf("hits=%d misses=%d, want 20/0", st.Hits.Load(), st.Misses.Load())
	}
	if st.BatchesAllHit.Load() != st.Batches.Load() {
		t.Fatalf("all %d batches should be all-hit, got %d", st.Batches.Load(), st.BatchesAllHit.Load())
	}
}

func TestInferOpCacheMissesThenHitsIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m := nn.FraudFC(rng, 16)
	rows := featRows(rng, 23, 28)
	rc, err := cache.NewHNSW(28, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	cu := &countingUDF{inner: NewModelUDF(m, nil)}
	newOp := func() *InferOp {
		op, err := NewInferOp(exec.NewMemScan(featSchema(), rows), cu, "features", 8, WithCache(rc))
		if err != nil {
			t.Fatal(err)
		}
		return op
	}

	cold := collectPreds(t, newOp())
	coldCalls := cu.calls.Load()
	if coldCalls == 0 {
		t.Fatal("cold run must invoke the model")
	}

	warm := collectPreds(t, newOp())
	if cu.calls.Load() != coldCalls {
		t.Fatalf("warm run invoked the model %d extra times", cu.calls.Load()-coldCalls)
	}
	for i := range cold {
		for j := range cold[i] {
			if cold[i][j] != warm[i][j] {
				t.Fatalf("row %d: warm prediction differs from cold", i)
			}
		}
	}
}

func TestInferOpCacheMixedBatchCompactsMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	m := nn.FraudFC(rng, 16)
	rows := featRows(rng, 10, 28)
	rc, err := cache.NewHNSW(28, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Warm even rows only; odd rows must be compacted into one model call.
	for i := 0; i < 10; i += 2 {
		if err := rc.Insert(rows[i][1].Vec, []float32{9, float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	cu := &countingUDF{inner: NewModelUDF(m, nil)}
	op, err := NewInferOp(exec.NewMemScan(featSchema(), rows), cu, "features", 10, WithCache(rc))
	if err != nil {
		t.Fatal(err)
	}
	preds := collectPreds(t, op)
	if sizes := cu.batchSizes(); len(sizes) != 1 || sizes[0] != 5 {
		t.Fatalf("model batches = %v, want one compacted batch of 5 misses", sizes)
	}
	for i, p := range preds {
		if i%2 == 0 {
			if p[0] != 9 || p[1] != float32(i) {
				t.Fatalf("hit row %d got %v, want cached [9 %d]", i, p, i)
			}
		} else {
			x := tensor.FromSlice(append([]float32(nil), rows[i][1].Vec...), 1, 28)
			want := m.Forward(x)
			if abs32(p[0]-want.At(0, 0)) > 1e-5 {
				t.Fatalf("miss row %d got %v, want model %v", i, p, want.Data())
			}
		}
	}
	st := op.Stats()
	if st.Hits.Load() != 5 || st.Misses.Load() != 5 {
		t.Fatalf("hits=%d misses=%d, want 5/5", st.Hits.Load(), st.Misses.Load())
	}
	// The misses were inserted: a second pass is all hits.
	if rc.Len() != 10 {
		t.Fatalf("cache holds %d entries after miss population, want 10", rc.Len())
	}
}

func TestInferOpCacheNearDuplicateHits(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	m := nn.FraudFC(rng, 16)
	base := make([]float32, 28)
	for j := range base {
		base[j] = rng.Float32()
	}
	near := append([]float32(nil), base...)
	near[0] += 0.01 // squared distance 1e-4, within threshold
	far := make([]float32, 28)
	for j := range far {
		far[j] = base[j] + 1
	}
	rc, err := cache.NewHNSW(28, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Insert(base, []float32{5, 5}); err != nil {
		t.Fatal(err)
	}
	rows := []table.Tuple{
		{table.IntVal(0), table.VecVal(near)},
		{table.IntVal(1), table.VecVal(far)},
	}
	cu := &countingUDF{inner: NewModelUDF(m, nil)}
	op, err := NewInferOp(exec.NewMemScan(featSchema(), rows), cu, "features", 4, WithCache(rc))
	if err != nil {
		t.Fatal(err)
	}
	preds := collectPreds(t, op)
	if preds[0][0] != 5 || preds[0][1] != 5 {
		t.Fatalf("near-duplicate row got %v, want cached [5 5]", preds[0])
	}
	if sizes := cu.batchSizes(); len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("model batches = %v, want one batch with the single far row", sizes)
	}
}

func TestInferOpCacheDuplicateRowsRunModelOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := nn.FraudFC(rng, 16)
	vec := make([]float32, 28)
	for j := range vec {
		vec[j] = rng.Float32()
	}
	rows := make([]table.Tuple, 6)
	for i := range rows {
		rows[i] = table.Tuple{table.IntVal(int64(i)), table.VecVal(vec)}
	}
	rc, err := cache.NewHNSW(28, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	cu := &countingUDF{inner: NewModelUDF(m, nil)}
	op, err := NewInferOp(exec.NewMemScan(featSchema(), rows), cu, "features", 6, WithCache(rc))
	if err != nil {
		t.Fatal(err)
	}
	preds := collectPreds(t, op)
	if sizes := cu.batchSizes(); len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("model batches = %v, want a single-row batch (single-flight)", sizes)
	}
	for i := 1; i < len(preds); i++ {
		for j := range preds[0] {
			if preds[i][j] != preds[0][j] {
				t.Fatalf("duplicate row %d prediction differs", i)
			}
		}
	}
	st := op.Stats()
	if st.Misses.Load() != 1 || st.Shared.Load() != 5 {
		t.Fatalf("misses=%d shared=%d, want 1/5", st.Misses.Load(), st.Shared.Load())
	}
}

func TestInferOpConcurrentQueriesShareCache(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	m := nn.FraudFC(rng, 16)
	rows := featRows(rng, 40, 28)
	rc, err := cache.NewHNSW(28, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	u := NewModelUDF(m, nil)
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	statsByW := make([]*InferStats, workers)
	sink := &InferStats{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			op, err := NewInferOp(exec.NewMemScan(featSchema(), rows), u, "features", 8,
				WithCache(rc), WithStats(sink))
			if err != nil {
				errs[w] = err
				return
			}
			statsByW[w] = op.Stats()
			got, err := exec.Collect(op)
			if err != nil {
				errs[w] = err
				return
			}
			if len(got) != 40 {
				errs[w] = errors.New("short result")
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	// Every row was served exactly once per query, through exactly one of
	// the three outcomes.
	if got := sink.Hits.Load() + sink.Misses.Load() + sink.Shared.Load(); got != workers*40 {
		t.Fatalf("outcomes %d, want %d", got, workers*40)
	}
	// The cache holds one entry per distinct feature vector regardless of
	// which query inserted it.
	if rc.Len() != 40 {
		t.Fatalf("cache holds %d entries, want 40", rc.Len())
	}
}

func TestInferOpPerRowAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	m := nn.FraudFC(rng, 16)
	rows := featRows(rng, 64, 28)
	op, err := NewInferOp(exec.NewMemScan(featSchema(), rows), NewModelUDF(m, nil), "features", 64)
	if err != nil {
		t.Fatal(err)
	}
	// One batch: predictions must be carved from a shared backing array,
	// not allocated per row.
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	first := got[0][len(got[0])-1].Vec
	last := got[63][len(got[63])-1].Vec
	if cap(first) != len(first) || cap(last) != len(last) {
		t.Fatal("per-row predictions must be capacity-capped subslices")
	}
	// Rows are disjoint but contiguous in one allocation: &last[0] sits
	// exactly 63*width floats after &first[0].
	if &first[:cap(first)][0] == &last[:cap(last)][0] {
		t.Fatal("rows alias the same slice start")
	}
}
