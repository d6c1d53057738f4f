package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"tensorbase/internal/nn"
	"tensorbase/internal/shard"
	"tensorbase/internal/table"
	"tensorbase/internal/tensor"
)

// q8Tolerance bounds how far a quantized prediction may sit from the f32
// reference.
const q8Tolerance = 0.05

// newModel builds the workload's model from its seed.
func newModel(seed int64) *nn.Model {
	return nn.FraudFC(rand.New(rand.NewSource(modelSeed(seed))), modelHidden)
}

// reference computes every row's f32 prediction with Model.Forward, in
// 256-row batches like the engine's PREDICT micro-batches. Model outputs
// are row-independent, so f32 predictions served by the engine must match
// bit for bit whatever batch a row rode in.
func reference(m *nn.Model, ds *dataset) [][]float32 {
	const batch = 256
	out := make([][]float32, len(ds.feats))
	for lo := 0; lo < len(ds.feats); lo += batch {
		hi := min(lo+batch, len(ds.feats))
		x := tensor.New(hi-lo, len(ds.feats[0]))
		for i := lo; i < hi; i++ {
			copy(x.Row(i-lo), ds.feats[i])
		}
		y := m.Forward(x)
		for i := lo; i < hi; i++ {
			out[i] = append([]float32(nil), y.Row(i-lo)...)
		}
	}
	return out
}

// checker verifies every response. The first response to each distinct
// statement is decoded and compared with the reference; later ones are
// compared by a hash of their rows. Reads over rows that concurrent
// INSERTs change are checked against bounds: everything the reading
// session wrote must be visible, and nothing not yet sent may be.
type checker struct {
	ds   *dataset
	ref  [][]float32
	seed maphash.Seed

	mu     sync.Mutex
	first  map[string]seen
	sent   []int64   // ids of every INSERT sent so far
	sentOK []bool    // per id: was it sent
	acked  [][]int64 // per connection: ids of its acknowledged INSERTs
	// unsure counts INSERT rows whose outcome is unknown (transport error).
	unsure []int64
	errs   []string
	nErrs  int
}

type seen struct {
	hash uint64
	rows int
}

func newChecker(ds *dataset, ref [][]float32) *checker {
	return &checker{ds: ds, ref: ref, seed: maphash.MakeSeed(), first: map[string]seen{},
		sentOK: make([]bool, len(ds.feats)), acked: make([][]int64, clients)}
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nErrs++
	if len(c.errs) < 10 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// sending records an INSERT about to be sent.
func (c *checker) sending(it *item) {
	if it.k != kInsert {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range it.ids {
		c.sent = append(c.sent, id)
		c.sentOK[id] = true
	}
}

// check verifies one successful response and returns the prediction rows
// it carried.
func (c *checker) check(it *item, o *outcome) int {
	switch it.k {
	case kInsert, kLoad:
		if o.rep.RowsAffected != int64(len(it.ids)) {
			c.fail("req %d: INSERT of %d rows affected %d", it.req, len(it.ids), o.rep.RowsAffected)
		}
		if it.k == kLoad {
			return 0
		}
		c.mu.Lock()
		c.acked[it.conn] = append(c.acked[it.conn], it.ids...)
		c.mu.Unlock()
		return 0
	case kGroup:
		c.checkGroup(it, o)
		return 0
	case kTopN:
		c.checkTopN(it, o)
		return 0
	}
	body := it.body()
	h := maphash.Bytes(c.seed, o.rep.Rows)
	c.mu.Lock()
	s, ok := c.first[body]
	c.mu.Unlock()
	if ok {
		if s.hash != h {
			c.fail("req %d: rows differ from the verified response to %q", it.req, body)
		}
		return s.rows
	}
	n, err := c.checkPredictions(it, o.rep.Rows)
	if err != nil {
		c.fail("req %d: %v", it.req, err)
		return n
	}
	c.mu.Lock()
	c.first[body] = seen{hash: h, rows: n}
	c.mu.Unlock()
	return n
}

// unknown records an INSERT whose outcome the generator cannot know.
func (c *checker) unknown(it *item) {
	c.mu.Lock()
	c.unsure = append(c.unsure, it.ids...)
	c.mu.Unlock()
}

// checkPredictions fully decodes a PREDICT response and compares it with
// the reference: f32 bit for bit, quantized within q8Tolerance.
func (c *checker) checkPredictions(it *item, raw json.RawMessage) (int, error) {
	var rows [][]json.RawMessage
	if err := json.Unmarshal(raw, &rows); err != nil {
		return 0, fmt.Errorf("rows: %w", err)
	}
	var want []int64
	switch it.k {
	case kPoint:
		want = []int64{it.key}
	default:
		for id := 0; id < c.ds.seedN; id++ {
			want = append(want, int64(id))
		}
	}
	if len(rows) != len(want) {
		return len(rows), fmt.Errorf("%d rows, want %d", len(rows), len(want))
	}
	got := make([]int64, len(rows))
	for i, r := range rows {
		if len(r) != 2 {
			return len(rows), fmt.Errorf("row %d has %d columns", i, len(r))
		}
		id, err := strconv.ParseInt(string(r[0]), 10, 64)
		if err != nil || id < 0 || id >= int64(len(c.ref)) {
			return len(rows), fmt.Errorf("row %d: bad id %s", i, r[0])
		}
		var p []float32
		if err := json.Unmarshal(r[1], &p); err != nil {
			return len(rows), fmt.Errorf("row %d: prediction: %w", i, err)
		}
		ref := c.ref[id]
		if len(p) != len(ref) {
			return len(rows), fmt.Errorf("id %d: %d outputs, want %d", id, len(p), len(ref))
		}
		for j := range p {
			if it.k == kScoreQ8 {
				if math.Abs(float64(p[j]-ref[j])) > q8Tolerance {
					return len(rows), fmt.Errorf("id %d: quantized output %d = %v, f32 reference %v", id, j, p[j], ref[j])
				}
			} else if math.Float32bits(p[j]) != math.Float32bits(ref[j]) {
				return len(rows), fmt.Errorf("id %d: output %d = %v, reference %v", id, j, p[j], ref[j])
			}
		}
		got[i] = id
	}
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	for i := range got {
		if got[i] != want[i] {
			return len(rows), fmt.Errorf("ids %v..., want %v...", got[:min(len(got), 4)], want[:min(len(want), 4)])
		}
	}
	return len(rows), nil
}

// bounds returns, per label, the row count and id sum every snapshot the
// connection may read must include (lo) and may include at most (hi).
func (c *checker) bounds(conn int) (loN, hiN, loSum, hiSum [2]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id := 0; id < c.ds.seedN; id++ {
		l := c.ds.labels[id]
		loN[l]++
		loSum[l] += float64(id)
	}
	hiN, hiSum = loN, loSum
	for _, id := range c.acked[conn] {
		l := c.ds.labels[id]
		loN[l]++
		loSum[l] += float64(id)
	}
	for _, id := range c.sent {
		l := c.ds.labels[id]
		hiN[l]++
		hiSum[l] += float64(id)
	}
	return
}

func (c *checker) checkGroup(it *item, o *outcome) {
	var rows [][]float64
	if err := json.Unmarshal(o.rep.Rows, &rows); err != nil {
		c.fail("req %d: GROUP BY rows: %v", it.req, err)
		return
	}
	loN, hiN, loSum, hiSum := c.bounds(it.conn)
	labels := 0
	for _, r := range rows {
		if len(r) != 3 || (r[0] != 0 && r[0] != 1) {
			c.fail("req %d: GROUP BY row %v", it.req, r)
			return
		}
		l, n, sum := int(r[0]), r[1], r[1]*r[2]
		labels++
		slack := 1e-9*hiSum[l] + 1
		if n < loN[l] || n > hiN[l] || sum < loSum[l]-slack || sum > hiSum[l]+slack {
			c.fail("req %d: label %d count %v sum %v outside [%v,%v] / [%v,%v]", it.req, l, n, sum, loN[l], hiN[l], loSum[l], hiSum[l])
		}
	}
	if labels != 2 {
		c.fail("req %d: %d label groups, want 2", it.req, labels)
	}
}

func (c *checker) checkTopN(it *item, o *outcome) {
	var rows [][]int64
	if err := json.Unmarshal(o.rep.Rows, &rows); err != nil {
		c.fail("req %d: top-n rows: %v", it.req, err)
		return
	}
	if len(rows) != topN {
		c.fail("req %d: top-n returned %d rows", it.req, len(rows))
		return
	}
	if err := c.topNError(it.conn, rows); err != nil {
		c.fail("req %d: top-n %v", it.req, err)
	}
}

// topNError checks an ORDER BY id DESC LIMIT n result: descending ids of
// rows that were sent, with their labels, and no id above the last one
// that the connection must see is missing.
func (c *checker) topNError(conn int, rows [][]int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	seedN := int64(c.ds.seedN)
	got := map[int64]bool{}
	for i, r := range rows {
		if len(r) != 2 || r[0] < 0 || r[0] >= int64(len(c.ds.labels)) {
			return fmt.Errorf("row %d = %v", i, r)
		}
		id := r[0]
		switch {
		case i > 0 && id >= rows[i-1][0]:
			return fmt.Errorf("not descending at row %d", i)
		case id >= seedN && !c.sentOK[id]:
			return fmt.Errorf("returned unsent id %d", id)
		case r[1] != c.ds.labels[id]:
			return fmt.Errorf("id %d has label %d, want %d", id, r[1], c.ds.labels[id])
		}
		got[id] = true
	}
	cut := rows[len(rows)-1][0]
	for id := seedN - 1; id > cut; id-- {
		if !got[id] {
			return fmt.Errorf("misses seed id %d", id)
		}
	}
	for _, id := range c.acked[conn] {
		if id > cut && !got[id] {
			return fmt.Errorf("misses id %d the session wrote", id)
		}
	}
	return nil
}

// expectedCounts is the final per-label row count: seed rows plus every
// acknowledged INSERT; rows of unknown outcome may or may not be there.
// shardOf, when non-negative, restricts the count to one shard's rows.
func (c *checker) expectedCounts(shardOf int) (lo, hi [2]int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keep := func(id int64) bool {
		return shardOf < 0 || shard.ShardOf(table.IntVal(id), nShards) == shardOf
	}
	for id := 0; id < c.ds.seedN; id++ {
		if keep(int64(id)) {
			lo[c.ds.labels[id]]++
		}
	}
	for _, ids := range c.acked {
		for _, id := range ids {
			if keep(id) {
				lo[c.ds.labels[id]]++
			}
		}
	}
	hi = lo
	for _, id := range c.unsure {
		if keep(id) {
			hi[c.ds.labels[id]]++
		}
	}
	return lo, hi
}

// checkCounts compares per-label counts read from one node (or the whole
// cluster) with the expectation.
func (c *checker) checkCounts(where string, rows [][]any, shardOf int) {
	lo, hi := c.expectedCounts(shardOf)
	var got [2]int64
	for _, r := range rows {
		if len(r) != 2 {
			c.fail("%s: count row %v", where, r)
			return
		}
		l, err1 := strconv.ParseInt(fmt.Sprint(r[0]), 10, 64)
		n, err2 := strconv.ParseInt(fmt.Sprint(r[1]), 10, 64)
		if err1 != nil || err2 != nil || l < 0 || l > 1 {
			c.fail("%s: count row %v", where, r)
			return
		}
		got[l] = n
	}
	for l := range got {
		if got[l] < lo[l] || got[l] > hi[l] {
			c.fail("%s: label %d has %d rows, want %d..%d", where, l, got[l], lo[l], hi[l])
		}
	}
}

// checkTotal compares a COUNT(*) result with the expectation.
func (c *checker) checkTotal(where string, rows [][]any, shardOf int) {
	lo, hi := c.expectedCounts(shardOf)
	if len(rows) != 1 || len(rows[0]) != 1 {
		c.fail("%s: COUNT(*) rows %v", where, rows)
		return
	}
	n, err := strconv.ParseInt(fmt.Sprint(rows[0][0]), 10, 64)
	if err != nil || n < lo[0]+lo[1] || n > hi[0]+hi[1] {
		c.fail("%s: COUNT(*) = %v, want %d..%d", where, rows[0][0], lo[0]+lo[1], hi[0]+hi[1])
	}
}
