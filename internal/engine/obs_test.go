package engine

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tensorbase/internal/exec"
)

// TestMetricsMatchStats pins the pull-model wiring: the snapshot the
// registry serves must agree with the engine's own Stats() counters.
func TestMetricsMatchStats(t *testing.T) {
	db := openDB(t, Options{InferBatch: 16, ResultCache: true, ResultCacheDistance: 1e-9})
	loadFraud(t, db, 100)
	mustExec(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns")
	mustExec(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns")
	if _, err := db.Exec("SELECT nope FROM txns"); err == nil {
		t.Fatal("bad query must error")
	}

	snap := db.Metrics()
	st := db.Stats()
	checks := []struct {
		metric string
		want   int64
	}{
		{"tensorbase_pool_hits_total", int64(st.PoolHits)},
		{"tensorbase_pool_misses_total", int64(st.PoolMisses)},
		{"tensorbase_disk_reads_total", int64(st.DiskReads)},
		{"tensorbase_disk_writes_total", int64(st.DiskWrites)},
		{"tensorbase_cache_hits_total", st.CacheHits},
		{"tensorbase_cache_misses_total", st.CacheMisses},
		{"tensorbase_predict_udf_calls_total", st.PredictUDFCalls},
		{"tensorbase_predict_batches_total", st.PredictBatches},
		{"tensorbase_panics_total", st.Panics},
	}
	for _, c := range checks {
		if got := snap.Counter(c.metric); got != c.want {
			t.Errorf("%s = %d, Stats says %d", c.metric, got, c.want)
		}
	}
	if got := snap.Counter("tensorbase_queries_total"); got != 3 {
		t.Errorf("queries_total = %d, want 3", got)
	}
	if got := snap.Counter("tensorbase_query_errors_total"); got != 1 {
		t.Errorf("query_errors_total = %d, want 1", got)
	}
	if st.CacheHits == 0 {
		t.Error("repeat PREDICT produced no cache hits")
	}
	h, ok := snap.Histograms["tensorbase_query_seconds"]
	if !ok || h.Count != 3 {
		t.Errorf("query_seconds histogram count = %d, want 3", h.Count)
	}

	// The Prometheus rendering carries the same numbers.
	var buf bytes.Buffer
	if err := db.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"tensorbase_queries_total 3",
		"tensorbase_query_errors_total 1",
		"tensorbase_query_seconds_count 3",
		fmt.Sprintf("tensorbase_cache_hits_total %d", st.CacheHits),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsSurviveReopen asserts counters behave coherently across a
// close/reopen: pushed query counters reset with the new instance, while
// pull-model storage counters restart from the fresh pool/disk — never
// stale handles into the closed instance.
func TestMetricsSurviveReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)")
	mustExec(t, db, "SELECT a FROM t")
	before := db.Metrics()
	if before.Counter("tensorbase_queries_total") != 3 {
		t.Fatalf("queries_total = %d before close", before.Counter("tensorbase_queries_total"))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	snap := re.Metrics()
	if got := snap.Counter("tensorbase_queries_total"); got != 0 {
		t.Fatalf("queries_total = %d after reopen, want 0", got)
	}
	mustExec(t, re, "SELECT a FROM t")
	snap = re.Metrics()
	if got := snap.Counter("tensorbase_queries_total"); got != 1 {
		t.Fatalf("queries_total = %d after reopen+query, want 1", got)
	}
	// The scan re-read pages through the fresh pool; the pull metrics must
	// reflect the new instance's counters exactly.
	st := re.Stats()
	if got := snap.Counter("tensorbase_pool_misses_total"); got != int64(st.PoolMisses) {
		t.Fatalf("pool_misses_total = %d, Stats says %d", got, st.PoolMisses)
	}
	if st.PoolMisses == 0 {
		t.Fatal("reopen scan should miss the cold pool")
	}
}

// TestSlowQueryLogExactlyOneLine is the acceptance test for the slow-query
// log: a statement over the threshold produces exactly one line, carrying
// the statement text and a per-operator span summary.
func TestSlowQueryLogExactlyOneLine(t *testing.T) {
	var buf bytes.Buffer
	db := openDB(t, Options{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &buf})
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)")
	buf.Reset()
	base := db.Metrics().Counter("tensorbase_slow_queries_total")

	mustExec(t, db, "SELECT a FROM t WHERE a > 1")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow query produced %d lines: %q", len(lines), buf.String())
	}
	line := lines[0]
	for _, want := range []string{"slow-query", "SELECT a FROM t WHERE a > 1", "spans=[", "project", "scan", "rows=2"} {
		if !strings.Contains(line, want) {
			t.Fatalf("slow-query line missing %q: %s", want, line)
		}
	}
	if got := db.Metrics().Counter("tensorbase_slow_queries_total") - base; got != 1 {
		t.Fatalf("slow_queries_total advanced by %d, want 1", got)
	}
}

// TestSlowQueryLogRespectsThreshold: fast statements under a generous
// threshold stay out of the log.
func TestSlowQueryLogRespectsThreshold(t *testing.T) {
	var buf bytes.Buffer
	db := openDB(t, Options{SlowQueryThreshold: time.Hour, SlowQueryLog: &buf})
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	mustExec(t, db, "SELECT a FROM t")
	if buf.Len() != 0 {
		t.Fatalf("fast queries logged: %q", buf.String())
	}
	if got := db.Metrics().Counter("tensorbase_slow_queries_total"); got != 0 {
		t.Fatalf("slow_queries_total = %d, want 0", got)
	}
}

// TestExplainAnalyzeFullTree is the headline acceptance test: EXPLAIN
// ANALYZE over a query combining an external sort with a cached PREDICT
// renders the full operator tree with per-operator rows, elapsed time
// including Close, pages fetched, spill volume, and cache probe outcomes.
func TestExplainAnalyzeFullTree(t *testing.T) {
	db := openDB(t, Options{InferBatch: 64, ResultCache: true, ResultCacheDistance: 1e-9})
	// 1500 rows > the sort's 1024-row run budget, forcing at least one
	// spilled run through the buffer pool.
	loadFraud(t, db, 1500)
	const q = "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns ORDER BY id"
	mustExec(t, db, q) // warm the result cache so the profile shows hits

	res, stats, err := db.ExecProfiled(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1500 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]exec.StageStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	for _, name := range []string{"scan", "predict", "project", "sort"} {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("profile missing stage %q: %+v", name, stats)
		}
		if s.Rows != 1500 {
			t.Errorf("stage %s rows = %d, want 1500", name, s.Rows)
		}
		if s.Elapsed <= 0 {
			t.Errorf("stage %s has no elapsed time", name)
		}
	}
	sort := byName["sort"]
	if sort.SpillRuns < 2 || sort.SpillBytes <= 0 {
		t.Errorf("sort did not record spill: runs=%d bytes=%d", sort.SpillRuns, sort.SpillBytes)
	}
	if sort.PagesFetched == 0 {
		t.Errorf("sort recorded no page fetches despite spilling")
	}
	if byName["scan"].PagesFetched == 0 {
		t.Errorf("scan recorded no page fetches")
	}
	predict := byName["predict"]
	if predict.CacheHits == 0 {
		t.Errorf("cached PREDICT recorded no cache hits: %+v", predict)
	}

	out := exec.FormatProfile(stats)
	for _, want := range []string{"close", "pages=", "spill=", "probes=", "└─"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered profile missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsConcurrentWithQueries hammers Metrics() and the Prometheus
// renderer while PREDICT queries run — the engine-level companion to the
// obs package's registry hammer (run under -race in CI).
func TestMetricsConcurrentWithQueries(t *testing.T) {
	db := openDB(t, Options{InferBatch: 16, ResultCache: true, ResultCacheDistance: 1e-9})
	loadFraud(t, db, 64)

	const workers, iters = 4, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := db.Exec("SELECT id, PREDICT(Fraud-FC-32, features) FROM txns WHERE id < 32"); err != nil {
					errs <- err
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				snap := db.Metrics()
				if snap.Counter("tensorbase_queries_total") < 0 {
					errs <- fmt.Errorf("negative counter")
					return
				}
				if err := db.Registry().WritePrometheus(io.Discard); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := db.Metrics().Counter("tensorbase_queries_total"); got != workers*iters {
		t.Fatalf("queries_total = %d, want %d", got, workers*iters)
	}
}
