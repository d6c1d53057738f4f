// Result caching: the Sec. 5 / 7.2.2 technique, SQL-integrated. The engine
// attaches an HNSW-indexed result cache to each loaded model; `PREDICT`
// probes it per row, compacts the misses into one dense model call, and
// caches the fresh predictions. Repeat (or near-duplicate) queries then
// serve straight from the cache without running the model. The Monte-Carlo
// estimator and the SLA policy decide whether the accuracy trade-off of
// near-match reuse is acceptable.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"tensorbase/internal/cache"
	"tensorbase/internal/data"
	"tensorbase/internal/engine"
	"tensorbase/internal/nn"
)

func main() {
	dir, err := os.MkdirTemp("", "resultcache")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Open an engine with per-model result caching enabled. The distance
	// threshold is squared L2 over the feature vector: 0 would cache only
	// exact repeats; a small positive value also reuses near-duplicates.
	db, err := engine.Open(filepath.Join(dir, "serve.db"), engine.Options{
		InferBatch:          32,
		ResultCache:         true,
		ResultCacheDistance: 1e-6,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// A fraud-scoring table and a trained FC model.
	const n = 512
	d := data.Fraud(7, n)
	rows, schema, err := d.FeatureRows()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := db.CreateTable("txns", schema); err != nil {
		log.Fatal(err)
	}
	if _, err := db.InsertRows("txns", rows); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	model := nn.FraudFC(rng, 1024)
	if _, err := nn.Train(model, d.X, d.Labels, nn.TrainConfig{
		Epochs: 3, BatchSize: 64, LR: 0.05, Seed: 9,
	}); err != nil {
		log.Fatal(err)
	}
	if err := db.LoadModel(model, 0.95); err != nil {
		log.Fatal(err)
	}

	query := fmt.Sprintf("SELECT id, PREDICT(%s, features) FROM txns", model.Name())

	// Cold: every row misses, the model runs over compacted miss batches,
	// and each prediction is inserted into the cache.
	start := time.Now()
	cold, err := db.Exec(query)
	if err != nil {
		log.Fatal(err)
	}
	coldLat := time.Since(start)

	// Warm: the same feature vectors hit the exact-match fast path; the
	// model never runs (all-hit batches skip it entirely).
	start = time.Now()
	warm, err := db.Exec(query)
	if err != nil {
		log.Fatal(err)
	}
	warmLat := time.Since(start)

	for i := range cold.Rows {
		cp, wp := cold.Rows[i][1].Vec, warm.Rows[i][1].Vec
		for j := range cp {
			if cp[j] != wp[j] {
				log.Fatalf("row %d: cached prediction differs from model output", i)
			}
		}
	}

	s := db.Stats()
	fmt.Printf("cold query:  %v (%d rows, %d model calls)\n",
		coldLat.Round(time.Microsecond), len(cold.Rows), s.PredictUDFCalls)
	fmt.Printf("warm query:  %v (%.1fx speedup, %d cache hits, %d all-hit batches)\n",
		warmLat.Round(time.Microsecond), float64(coldLat)/float64(warmLat),
		s.CacheHits, s.BatchesAllHit)

	// SLA check (Sec. 5): near-match reuse trades accuracy for latency;
	// the Monte-Carlo estimator gates the cache on an agreement floor.
	rc, ok := db.ResultCacheFor(model.Name())
	if !ok {
		log.Fatal("model cache missing")
	}
	cm := cache.NewCachedModel(model, rc)
	use, agreement, err := cache.Recommend(cm, d.X.SliceRows(0, 100), cache.SLA{MinAgreement: 0.95})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SLA check:   %.1f%% cached-vs-full agreement → cache recommended: %v\n",
		100*agreement, use)
	fmt.Println("(paper Sec. 7.2.2: 10.3x speedup with accuracy 98.75% → 93.65% for the CNN)")
}
