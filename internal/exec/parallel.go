package exec

import (
	"sort"
	"sync"

	"tensorbase/internal/lifecycle"
	"tensorbase/internal/parallel"
	"tensorbase/internal/table"
)

// PartitionedAgg is the intra-operator-parallel form of HashAggregate: the
// input stream is hash-partitioned by its group key, one worker per
// partition runs an independent HashAggregate over its share, and the
// per-partition results are merged and sorted into the same deterministic
// order the serial operator produces. Because a group's tuples all land in
// one partition, and channels preserve the producer's order, every group is
// folded in exactly the input order — the parallel result is bit-identical
// to the serial one.
//
// Worker goroutines beyond the caller's are drawn from the shared
// parallel.Budget unless an explicit worker count forces the fan-out, so
// the operator coexists with engine- and kernel-level parallelism without
// oversubscribing cores (Sec. 3).
type PartitionedAgg struct {
	in       Operator
	groupBy  []string
	specs    []AggSpec
	workers  int
	schema   *table.Schema
	groupIdx []int

	results []table.Tuple
	pos     int
	tok     *lifecycle.Token
}

// NewPartitionedAggregate returns an aggregation of in grouped by groupBy,
// executed over `workers` hash partitions. workers <= 0 sizes the fan-out
// from the shared core budget at Open time; workers == 1 degenerates to the
// serial HashAggregate.
func NewPartitionedAggregate(in Operator, groupBy []string, specs []AggSpec, workers int) (*PartitionedAgg, error) {
	// Validate columns and derive the output schema via the serial
	// operator's constructor (the prototype is never opened).
	proto, err := NewHashAggregate(in, groupBy, specs)
	if err != nil {
		return nil, err
	}
	return &PartitionedAgg{
		in: in, groupBy: groupBy, specs: specs, workers: workers,
		schema: proto.Schema(), groupIdx: proto.groupIdx,
	}, nil
}

// Schema implements Operator.
func (p *PartitionedAgg) Schema() *table.Schema { return p.schema }

// SetCancel implements Cancellable: the feed loop and the per-partition
// aggregates observe tok, so a cancelled query stops routing tuples within
// one tuple and the partition workers drain out.
func (p *PartitionedAgg) SetCancel(tok *lifecycle.Token) { p.tok = tok }

// Open implements Operator: it consumes the whole input, routing tuples to
// partition workers, and materialises the merged result.
func (p *PartitionedAgg) Open() error {
	shared := parallel.Default()
	w := p.workers
	extras := 0
	if w <= 0 {
		extras = shared.TryAcquireUpTo(shared.Total() - 1)
		w = 1 + extras
	}
	err := p.open(w)
	if extras > 0 {
		shared.Release(extras)
	}
	return err
}

func (p *PartitionedAgg) open(w int) error {
	if w <= 1 {
		agg, err := NewHashAggregate(p.in, p.groupBy, p.specs)
		if err != nil {
			return err
		}
		agg.SetCancel(p.tok)
		if err := agg.Open(); err != nil {
			return err
		}
		p.results = agg.results
		p.pos = 0
		return nil
	}
	if err := p.in.Open(); err != nil {
		return err
	}
	chans := make([]chan table.Tuple, w)
	aggs := make([]*HashAggregate, w)
	errs := make([]error, w)
	for i := range chans {
		chans[i] = make(chan table.Tuple, 64)
		agg, err := NewHashAggregate(&chanScan{schema: p.in.Schema(), ch: chans[i]}, p.groupBy, p.specs)
		if err != nil {
			return err
		}
		aggs[i] = agg
		// The sub-aggregate keeps draining its channel on cancellation (its
		// chanScan input returns end-of-stream only when the producer closes
		// the channel), so the producer never blocks on a dead worker; no
		// token here, the producer's check stops the stream.
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func(i int) {
			defer wg.Done()
			if err := aggs[i].Open(); err != nil {
				errs[i] = err
				for range chans[i] { // keep the producer from blocking
				}
			}
		}(i)
	}
	var (
		produceErr error
		key        []byte
	)
	for {
		if err := p.tok.Err(); err != nil {
			produceErr = err
			break
		}
		t, ok, err := p.in.Next()
		if err != nil {
			produceErr = err
			break
		}
		if !ok {
			break
		}
		key = appendGroupKey(key[:0], t, p.groupIdx)
		chans[fnvHash(key)%uint64(w)] <- t
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	if produceErr != nil {
		return produceErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Merge and restore the serial operator's deterministic output order.
	// Group columns lead every result tuple, so the sort key is the group
	// key of the first len(groupBy) values.
	outIdx := make([]int, len(p.groupBy))
	for i := range outIdx {
		outIdx[i] = i
	}
	type keyed struct {
		key string
		t   table.Tuple
	}
	var merged []keyed
	for _, agg := range aggs {
		for _, t := range agg.results {
			key = appendGroupKey(key[:0], t, outIdx)
			merged = append(merged, keyed{string(key), t})
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].key < merged[j].key })
	p.results = make([]table.Tuple, len(merged))
	for i, m := range merged {
		p.results[i] = m.t
	}
	p.pos = 0
	return nil
}

// Next implements Operator.
func (p *PartitionedAgg) Next() (table.Tuple, bool, error) {
	if p.pos >= len(p.results) {
		return nil, false, nil
	}
	t := p.results[p.pos]
	p.pos++
	return t, true, nil
}

// Close implements Operator.
func (p *PartitionedAgg) Close() error {
	p.results = nil
	return p.in.Close()
}

// fnvHash is FNV-1a over s, allocation-free.
func fnvHash(s []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// chanScan adapts a channel of tuples to the Operator interface; it is the
// per-partition input of PartitionedAgg. The producer closes the channel to
// end the stream.
type chanScan struct {
	schema *table.Schema
	ch     chan table.Tuple
}

// Schema implements Operator.
func (c *chanScan) Schema() *table.Schema { return c.schema }

// Open implements Operator.
func (c *chanScan) Open() error { return nil }

// Next implements Operator.
func (c *chanScan) Next() (table.Tuple, bool, error) {
	t, ok := <-c.ch
	if !ok {
		return nil, false, nil
	}
	return t, true, nil
}

// Close implements Operator.
func (c *chanScan) Close() error { return nil }

var (
	_ Operator = (*PartitionedAgg)(nil)
	_ Operator = (*chanScan)(nil)
)
