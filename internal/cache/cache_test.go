package cache

import (
	"math"
	"math/rand"
	"testing"

	"tensorbase/internal/ann"
	"tensorbase/internal/data"
	"tensorbase/internal/nn"
	"tensorbase/internal/tensor"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 4, 1); err == nil {
		t.Fatal("nil index must error")
	}
	if _, err := New(ann.NewBrute(4), 0, 1); err == nil {
		t.Fatal("dim 0 must error")
	}
	if _, err := New(ann.NewBrute(4), 4, -1); err == nil {
		t.Fatal("negative threshold must error")
	}
}

func TestLookupMissOnEmptyAndFarEntries(t *testing.T) {
	c, err := New(ann.NewBrute(2), 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Lookup([]float32{1, 1}); err != nil || ok {
		t.Fatalf("empty cache lookup: ok=%v err=%v", ok, err)
	}
	if err := c.Insert([]float32{10, 10}, []float32{0.9, 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Lookup([]float32{1, 1}); ok {
		t.Fatal("far entry must miss")
	}
	hits, misses := c.Stats()
	if hits != 0 || misses != 2 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
}

func TestLookupHitWithinThreshold(t *testing.T) {
	c, err := New(ann.NewBrute(2), 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0.2, 0.8}
	if err := c.Insert([]float32{1, 1}, want); err != nil {
		t.Fatal(err)
	}
	pred, ok, err := c.Lookup([]float32{1.1, 1}) // dist² = 0.01 < 0.05
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if pred[0] != want[0] || pred[1] != want[1] {
		t.Fatalf("pred = %v", pred)
	}
	hits, _ := c.Stats()
	if hits != 1 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestDimensionMismatch(t *testing.T) {
	c, _ := New(ann.NewBrute(3), 3, 1)
	if err := c.Insert([]float32{1}, []float32{1}); err == nil {
		t.Fatal("short insert must error")
	}
	if _, _, err := c.Lookup([]float32{1}); err == nil {
		t.Fatal("short lookup must error")
	}
}

func trainedModel(t *testing.T, seed int64) (*nn.Model, *data.Classified, *data.Classified) {
	t.Helper()
	train := data.Clusters(seed, 600, 16, 4, 0.4)
	test := data.Clusters(seed+1000, 200, 16, 4, 0.4)
	// Clusters with different seeds have different centres; use the same
	// seed stream for train/test instead.
	all := data.Clusters(seed, 800, 16, 4, 0.4)
	train = &data.Classified{X: all.X.Slice2D(0, 600, 0, 16), Labels: all.Labels[:600]}
	test = &data.Classified{X: all.X.Slice2D(600, 800, 0, 16), Labels: all.Labels[600:]}
	rng := rand.New(rand.NewSource(seed))
	m := nn.MustModel("cachetest", []int{1, 16},
		nn.NewLinear(rng, 16, 32), nn.ReLU{},
		nn.NewLinear(rng, 32, 4), nn.Softmax{},
	)
	if _, err := nn.Train(m, train.X, train.Labels, nn.TrainConfig{Epochs: 8, BatchSize: 32, LR: 0.1, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	return m, train, test
}

// TestDistanceZeroIsExactMatch: at distance 0 the cache answers only
// bit-identical repeats (from its exact-match map) and misses a vector one
// ULP away; the returned prediction does not alias the caller's slices.
func TestDistanceZeroIsExactMatch(t *testing.T) {
	c, err := NewHNSW(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	feat := []float32{1, 2, 3}
	pred := []float32{0.9}
	if err := c.Insert(feat, pred); err != nil {
		t.Fatal(err)
	}
	feat[0], pred[0] = 9, 9 // the caller reuses its buffers
	got, ok, err := c.Lookup([]float32{1, 2, 3})
	if err != nil || !ok || got[0] != 0.9 {
		t.Fatalf("bit-identical lookup: ok=%v pred=%v err=%v", ok, got, err)
	}
	ulp := []float32{1, 2, math.Nextafter32(3, 4)}
	if _, ok, err := c.Lookup(ulp); err != nil || ok {
		t.Fatalf("one-ULP-away lookup: ok=%v err=%v, want a miss", ok, err)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 1/1", hits, misses)
	}
}

func TestCachedModelMissThenHit(t *testing.T) {
	m, train, _ := trainedModel(t, 5)
	c, err := NewHNSW(16, 1e-9) // effectively exact-match caching
	if err != nil {
		t.Fatal(err)
	}
	cm := NewCachedModel(m, c)
	row := train.X.Row(0)
	p1, err := cm.PredictRow(row)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cm.PredictRow(row) // identical features: must hit
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 1/1", hits, misses)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("hit returned different prediction")
		}
	}
}

func TestCachedModelSpeedsUpAndDropsAccuracy(t *testing.T) {
	// The Sec. 7.2.2 trade-off in miniature: with an approximate
	// threshold, cached serving agrees with full inference on most but
	// not all queries.
	m, train, test := trainedModel(t, 7)
	c, err := NewHNSW(16, 4.0) // generous threshold → approximate reuse
	if err != nil {
		t.Fatal(err)
	}
	cm := NewCachedModel(m, c)
	// Warm the cache with the training rows' predictions.
	for i := 0; i < train.X.Dim(0); i++ {
		if _, err := cm.PredictRow(train.X.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	fullAcc, err := nn.Accuracy(m, test.X.Clone(), test.Labels)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < test.X.Dim(0); i++ {
		cls, err := cm.PredictClass(test.X.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if cls == test.Labels[i] {
			correct++
		}
	}
	cachedAcc := float64(correct) / float64(test.X.Dim(0))
	hits, _ := c.Stats()
	if hits == 0 {
		t.Fatal("warm cache produced no hits on in-distribution queries")
	}
	if fullAcc < 0.9 {
		t.Fatalf("full accuracy only %.3f; training failed", fullAcc)
	}
	if cachedAcc < fullAcc-0.25 {
		t.Fatalf("cached accuracy %.3f collapsed vs full %.3f", cachedAcc, fullAcc)
	}
}

func TestEstimateAgreementBounds(t *testing.T) {
	m, train, test := trainedModel(t, 9)
	c, err := NewHNSW(16, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	cm := NewCachedModel(m, c)
	for i := 0; i < train.X.Dim(0); i++ {
		if _, err := cm.PredictRow(train.X.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	agree, err := EstimateAgreement(cm, test.X)
	if err != nil {
		t.Fatal(err)
	}
	if agree < 0 || agree > 1 {
		t.Fatalf("agreement %v out of [0,1]", agree)
	}
	if agree < 0.5 {
		t.Fatalf("agreement %v implausibly low for clustered data", agree)
	}
}

func TestEstimateAgreementValidation(t *testing.T) {
	m, _, _ := trainedModel(t, 11)
	c, _ := NewHNSW(16, 1)
	cm := NewCachedModel(m, c)
	if _, err := EstimateAgreement(cm, tensor.New(0, 16)); err == nil {
		t.Fatal("empty sample must error")
	}
	if _, err := EstimateAgreement(cm, tensor.New(2, 2, 2)); err == nil {
		t.Fatal("non-2D sample must error")
	}
}

func TestRecommendHonoursSLA(t *testing.T) {
	m, train, test := trainedModel(t, 13)
	c, err := NewHNSW(16, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	cm := NewCachedModel(m, c)
	for i := 0; i < train.X.Dim(0); i++ {
		if _, err := cm.PredictRow(train.X.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	use, agree, err := Recommend(cm, test.X, SLA{MinAgreement: 0.0})
	if err != nil {
		t.Fatal(err)
	}
	if !use {
		t.Fatal("zero SLA must always recommend the cache")
	}
	use, _, err = Recommend(cm, test.X, SLA{MinAgreement: agree + 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if use {
		t.Fatal("SLA above measured agreement must reject the cache")
	}
}
