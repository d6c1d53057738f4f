package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"tensorbase/internal/data"
	"tensorbase/internal/sql"
	"tensorbase/internal/table"
)

// modelName is the served model: Fraud-FC with a 1024-wide hidden layer
// (paper Table 1), random weights drawn from the workload seed.
const (
	modelName   = "Fraud-FC-1024"
	modelHidden = 1024
	// clients is the generator's connection (and worker goroutine) count,
	// one session per connection. It matches the 2-CPU machine the rates
	// below were calibrated on.
	clients = 2
	// warmup is the stretch of traffic sent before the measured window;
	// it is checked like the rest but excluded from every metric.
	warmup = time.Second
)

// kind is a statement class; engine.stmt_ms is reported per class.
type kind int

const (
	kScore   kind = iota // full-table PREDICT, f32 twin
	kScoreQ8             // full-table PREDICT OPTIONS (quantized)
	kPoint               // PREDICT ... WHERE id = k
	kGroup               // GROUP BY label COUNT/AVG
	kTopN                // ORDER BY id DESC LIMIT 10
	kInsert              // INSERT of new transactions
	kLoad                // set-up bulk INSERT
)

var kindNames = [...]string{"score", "score_q8", "point", "group", "topn", "insert", "load"}

func (k kind) String() string { return kindNames[k] }

// isRead reports whether the class is a SELECT.
func (k kind) isRead() bool { return k <= kTopN }

// predicts reports whether the class returns PREDICT rows.
func (k kind) predicts() bool { return k <= kPoint }

// share is one class's probability in an open-loop mix.
type share struct {
	k kind
	p float64
}

// workload is one traffic mix against one topology.
type workload struct {
	name string
	// topo is "single", "replicas" (a primary plus two in-process
	// replicas behind the read router) or "shards" (four in-process
	// shards behind the scatter-gather coordinator).
	topo string
	rows int // seed rows in txns
	// rate is the open-loop arrival rate in requests/s; 0 means a closed
	// loop of `clients` clients sending back to back.
	rate float64
	mix  []share
	// insertRows is the rows per measured INSERT.
	insertRows int
}

// workloads are the benchmark's traffic mixes. Open-loop rates are about
// 60% of what two closed-loop clients sustain on a 2-CPU machine, so the
// queue is stable but not empty. All tables fit the default buffer pool
// (1024 × 32 KiB frames per engine): 16384 rows of 28 floats are ~2.3 MB.
var workloads = []workload{
	{
		// Batch-scoring jobs wait for each reply: two clients rescore the
		// whole table back to back, a quarter of them on the int8 twin.
		// The forward pass dominates, and two concurrent scans exercise
		// the cross-query coalescer.
		name: "batch_score", topo: "single", rows: 4096,
		mix: []share{{kScore, 0.75}, {kScoreQ8, 0.25}},
	},
	{
		// Point lookups and single-row writes against a primary and two
		// replicas: every read scans the table and runs the model on one
		// row, so storage, exec, server and router dominate. Writes
		// exercise WAL group commit, log shipping and replica apply; a
		// few reads aggregate the whole table.
		name: "point_rw", topo: "replicas", rows: 8192,
		rate: 165, insertRows: 1,
		mix: []share{{kPoint, 0.75}, {kGroup, 0.05}, {kInsert, 0.20}},
	},
	{
		// The only mix through the shard coordinator: pinned reads go to
		// one shard, aggregates and top-n scatter to all four and merge,
		// and 4-row INSERTs hash-split across shards.
		name: "shard_mix", topo: "shards", rows: 16384,
		rate: 95, insertRows: 4,
		mix: []share{{kPoint, 0.50}, {kGroup, 0.20}, {kTopN, 0.10}, {kInsert, 0.20}},
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// item is one request of the generated stream.
type item struct {
	req  int64
	conn int
	// due is the send time relative to the start of traffic (open loop).
	due  time.Duration
	k    kind
	key  int64   // kPoint: the id read
	ids  []int64 // kInsert/kLoad: the ids written
	sql  string
	warm bool // sent during warm-up: checked, not measured
}

// body is the statement text without its request-id comment; responses
// to equal bodies must be equal while the rows they read do not change.
func (it *item) body() string {
	if i := strings.Index(it.sql, "*/ "); i >= 0 {
		return it.sql[i+3:]
	}
	return it.sql
}

// Sub-seeds keep the data, the model and the request stream independent.
func dataSeed(seed int64) int64   { return seed*1_000_003 + 1 }
func modelSeed(seed int64) int64  { return seed*1_000_003 + 2 }
func streamSeed(seed int64) int64 { return seed*1_000_003 + 3 }
func insertSeed(seed int64) int64 { return seed*1_000_003 + 4 }

func tag(req int64) string { return fmt.Sprintf("/* req=%d */ ", req) }

func predictSQL(req int64, quantized bool, where string) string {
	opt := ""
	if quantized {
		opt = " OPTIONS (quantized)"
	}
	return fmt.Sprintf("%sSELECT id, PREDICT(%s, features)%s FROM txns%s", tag(req), modelName, opt, where)
}

const (
	groupSQL = "SELECT label, COUNT(*), AVG(id) FROM txns GROUP BY label"
	topNSQL  = "SELECT id, label FROM txns ORDER BY id DESC LIMIT 10"
	topN     = 10
)

// dataset holds every row the benchmark may write: the seed rows, then the
// rows measured INSERTs add, with id = index.
type dataset struct {
	feats  [][]float32
	labels []int64
	seedN  int
}

func newDataset(w workload, seed int64, inserted int) *dataset {
	ds := &dataset{seedN: w.rows}
	add := func(c *data.Classified) {
		for i := 0; i < c.X.Dim(0); i++ {
			ds.feats = append(ds.feats, append([]float32(nil), c.X.Row(i)...))
			ds.labels = append(ds.labels, int64(c.Labels[i]))
		}
	}
	add(data.Fraud(dataSeed(seed), w.rows))
	if inserted > 0 {
		add(data.Fraud(insertSeed(seed), inserted))
	}
	return ds
}

// insertSQL renders an INSERT of the given ids' rows.
func (ds *dataset) insertSQL(req int64, ids []int64) string {
	ins := &sql.Insert{Table: "txns", Rows: make([][]sql.Literal, len(ids))}
	for i, id := range ids {
		ins.Rows[i] = []sql.Literal{
			{Value: table.IntVal(id)},
			{Value: table.VecVal(ds.feats[id])},
			{Value: table.IntVal(ds.labels[id])},
		}
	}
	return tag(req) + sql.Render(ins)
}

// Request ids: set-up statements and end-of-run checks get their own
// ranges so every statement of a run carries a distinct id.
const (
	loadReqBase  = int64(1) << 40
	checkReqBase = int64(2) << 40
)

// loadRows is the rows per set-up INSERT statement.
const loadRows = 256

// loadItems splits the seed rows into set-up INSERTs, all sent on
// connection 0.
func loadItems(w workload, ds *dataset) []item {
	var out []item
	for lo := 0; lo < w.rows; lo += loadRows {
		hi := min(lo+loadRows, w.rows)
		ids := make([]int64, 0, hi-lo)
		for id := lo; id < hi; id++ {
			ids = append(ids, int64(id))
		}
		req := loadReqBase + int64(len(out))
		out = append(out, item{req: req, k: kLoad, ids: ids, sql: ds.insertSQL(req, ids)})
	}
	return out
}

// schedule generates an open-loop request stream: Poisson arrivals at
// w.rate over warmup+dur, each assigned to a connection, with the mix's
// classes. Point keys are Zipf-skewed over the seed rows; a tenth of a
// connection's point reads target a row that connection inserted earlier,
// which read-your-writes must make visible. Inserted rows take fresh ids
// after the seed rows. The result depends only on (w, seed, dur); the
// caller renders INSERT text once the dataset for the inserted ids exists.
func schedule(w workload, seed int64, dur time.Duration) []item {
	rng := rand.New(rand.NewSource(streamSeed(seed)))
	perm := rng.Perm(w.rows)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(w.rows-1))
	nextID := int64(w.rows)
	recent := make([][]int64, clients) // per connection, its last inserted ids
	var out []item
	t := 0.0
	end := (warmup + dur).Seconds()
	for {
		t += rng.ExpFloat64() / w.rate
		if t >= end {
			return out
		}
		it := item{req: int64(len(out)), conn: rng.Intn(clients), due: time.Duration(t * float64(time.Second))}
		it.warm = it.due < warmup
		it.k = pick(rng, w.mix)
		switch it.k {
		case kPoint:
			it.key = int64(perm[zipf.Uint64()])
			if own := recent[it.conn]; len(own) > 0 && rng.Float64() < 0.1 {
				it.key = own[rng.Intn(len(own))]
			}
			it.sql = predictSQL(it.req, false, fmt.Sprintf(" WHERE id = %d", it.key))
		case kGroup:
			it.sql = tag(it.req) + groupSQL
		case kTopN:
			it.sql = tag(it.req) + topNSQL
		case kInsert:
			for i := 0; i < w.insertRows; i++ {
				it.ids = append(it.ids, nextID)
				nextID++
			}
			own := append(recent[it.conn], it.ids...)
			recent[it.conn] = own[max(0, len(own)-8):]
		}
		out = append(out, it)
	}
}

// renderInserts fills in the INSERT text of a schedule's writes.
func renderInserts(items []item, ds *dataset) {
	for i := range items {
		if items[i].k == kInsert {
			items[i].sql = ds.insertSQL(items[i].req, items[i].ids)
		}
	}
}

// insertedRows counts the rows a schedule's INSERTs add.
func insertedRows(items []item) int {
	n := 0
	for _, it := range items {
		n += len(it.ids)
	}
	return n
}

func pick(rng *rand.Rand, mix []share) kind {
	x := rng.Float64()
	for _, s := range mix {
		if x < s.p {
			return s.k
		}
		x -= s.p
	}
	return mix[len(mix)-1].k
}

// closedStream is one closed-loop client's endless statement sequence:
// client c's j-th statement has request id c + clients*j.
type closedStream struct {
	w   workload
	c   int
	j   int64
	rng *rand.Rand
}

func newClosedStream(w workload, seed int64, c int) *closedStream {
	return &closedStream{w: w, c: c, rng: rand.New(rand.NewSource(streamSeed(seed) + int64(c)))}
}

func (s *closedStream) next() item {
	it := item{req: int64(s.c) + clients*s.j, conn: s.c, k: pick(s.rng, s.w.mix)}
	s.j++
	it.sql = predictSQL(it.req, it.k == kScoreQ8, "")
	return it
}
