package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tensorbase/internal/nn"
)

type options struct {
	w      workload
	seed   int64
	dur    time.Duration
	trace  bool
	setups int    // set-ups of an untraced run; setup_s is their median
	work   string // directory for this run's server files
	root   string // repository root
	out    string // where the windows' requests and spans are written
}

// maxLateMS bounds the open-loop generator's own lateness (p99): a run
// whose generator sent later than this after a request fell due is
// invalid, because its latencies would measure the generator.
const maxLateMS = 25.0

// record is one request as the generator measured it.
type record struct {
	it    *item
	due   time.Time
	o     outcome
	rows  int // result rows of a read
	preds int // prediction rows among them
	// late is how long after it was due the request went out although its
	// connection was idle: the generator's own delay.
	late time.Duration
}

func (r *record) ok() bool { return r.o.err == nil && r.o.status == 200 }

func (r *record) latencyMS() float64 {
	if !r.ok() {
		return math.Inf(1) // a failed request misses any latency limit
	}
	return ms(r.o.done.Sub(r.due))
}

// phaseCount tallies requests of one phase.
type phaseCount struct {
	attempted, succeeded int
	failed               map[string]int // by status: 400, 404, 503, other, transport
}

func (p *phaseCount) add(o *outcome) {
	p.attempted++
	if o.err == nil && o.status == 200 {
		p.succeeded++
		return
	}
	class := "other"
	switch o.status {
	case 0:
		class = "transport"
	case 400, 404, 503:
		class = strconv.Itoa(o.status)
	}
	if p.failed == nil {
		p.failed = map[string]int{}
	}
	p.failed[class]++
}

// target is one server under load with the generator's sessions on it.
type target struct {
	label string // "traced " for the traced server's phases
	sp    *serverProc
	chk   *checker
	conns []*conn
	state stateReply
}

func (t *target) close(graceful bool) {
	for _, c := range t.conns {
		c.close()
	}
	t.sp.stop(graceful)
}

type runner struct {
	o     options
	ds    *dataset
	ref   [][]float32
	items []item // open-loop schedule
	loads []item // set-up INSERTs
	model string // model file

	mu     sync.Mutex
	phases map[string]*phaseCount
}

func (r *runner) count(t *target, phase string, o *outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := t.label + phase
	p := r.phases[key]
	if p == nil {
		p = &phaseCount{}
		r.phases[key] = p
	}
	p.add(o)
}

// send runs one statement and checks its answer.
func (r *runner) send(t *target, it *item, due time.Time, phase string) record {
	t.chk.sending(it)
	rec := record{it: it, due: due, o: t.conns[it.conn].do(it.req, it.sql)}
	if rec.ok() {
		rec.rows = t.chk.check(it, &rec.o)
		if it.k.predicts() {
			rec.preds = rec.rows
		}
	} else if it.k == kInsert && rec.o.status == 0 {
		t.chk.unknown(it)
	}
	r.count(t, phase, &rec.o)
	return rec
}

// setup starts a server and seeds it: process start, model load, table
// creation, the bulk load, and replica catch-up. It returns the set-up
// time in seconds.
func (r *runner) setup(idx int, trace bool) (*target, float64, error) {
	sp, err := startServer(filepath.Join(r.o.work, fmt.Sprintf("srv-%d", idx)), r.o.w.topo, r.model, trace)
	if err != nil {
		return nil, 0, err
	}
	t := &target{sp: sp, chk: newChecker(r.ds, r.ref)}
	if trace {
		t.label = "traced "
	}
	for i := 0; i < clients; i++ {
		t.conns = append(t.conns, newConn(sp.base))
	}
	create := &item{req: loadReqBase - 1, k: kLoad, sql: tag(loadReqBase-1) + "CREATE TABLE txns (id INT, features VECTOR, label INT)"}
	if rec := r.send(t, create, time.Now(), "setup"); !rec.ok() {
		t.close(false)
		return nil, 0, fmt.Errorf("CREATE TABLE: %v", rec.o.err)
	}
	// One connection loads: two would saturate both CPUs of the machine
	// the benchmark was tuned on, and a set-up that saturates them stretches
	// with every slice the hypervisor steals.
	for i := range r.loads {
		it := &r.loads[i]
		if rec := r.send(t, it, time.Now(), "setup"); !rec.ok() {
			t.close(false)
			return nil, 0, fmt.Errorf("set-up INSERT %d: %v", it.req, rec.o.err)
		}
	}
	if err := sp.caughtUp(time.Minute); err != nil {
		t.close(false)
		return nil, 0, err
	}
	secs := time.Since(sp.started).Seconds()
	if t.state, err = sp.state(); err != nil {
		t.close(false)
		return nil, 0, err
	}
	return t, secs, nil
}

// openLoop sends items on their schedule: each connection sends its items
// in order, each no earlier than t0+due, and a request waits for its
// connection if the previous one has not returned.
func (r *runner) openLoop(t *target, items []item, t0 time.Time, phase string) []record {
	out := make([][]record, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prevDone := t0
			for i := range items {
				it := &items[i]
				if it.conn != c {
					continue
				}
				due := t0.Add(it.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				rec := r.send(t, it, due, phase)
				if due.After(prevDone) {
					rec.late = rec.o.sent.Sub(due)
				} else {
					rec.late = rec.o.sent.Sub(prevDone)
				}
				prevDone = rec.o.done
				out[c] = append(out[c], rec)
			}
		}(c)
	}
	wg.Wait()
	return flatten(out)
}

func flatten(out [][]record) []record {
	var all []record
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// closedLoop runs each client back to back until the deadline.
func (r *runner) closedLoop(t *target, streams []*closedStream, dur time.Duration, phase string) []record {
	deadline := time.Now().Add(dur)
	out := make([][]record, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				it := new(item)
				*it = streams[c].next()
				out[c] = append(out[c], r.send(t, it, time.Now(), phase))
			}
		}(c)
	}
	wg.Wait()
	return flatten(out)
}

// window is one measured stretch of traffic on one server.
type window struct {
	recs          []record
	start, end    time.Time
	before, after snapshot
	state         stateReply
	spans         *spanDump
}

// measure warms the server up, runs the measured window between two
// counter snapshots, and runs the end-of-run checks.
func (r *runner) measure(t *target, trace bool) (*window, error) {
	w := &window{state: t.state}
	var streams []*closedStream
	var warm, meas []item
	if r.o.w.rate == 0 {
		for c := 0; c < clients; c++ {
			streams = append(streams, newClosedStream(r.o.w, r.o.seed, c))
		}
		r.closedLoop(t, streams, warmup, "warmup")
	} else {
		for _, it := range r.items {
			if it.warm {
				warm = append(warm, it)
			} else {
				meas = append(meas, it)
			}
		}
		r.openLoop(t, warm, time.Now(), "warmup")
	}
	var err error
	if w.before, err = t.sp.snapshot(t.state.Engines); err != nil {
		return nil, err
	}
	if trace {
		if err := t.sp.mark("start"); err != nil {
			return nil, err
		}
	}
	w.start = time.Now()
	if r.o.w.rate == 0 {
		w.recs = r.closedLoop(t, streams, r.o.dur, "measure")
	} else {
		w.recs = r.openLoop(t, meas, w.start.Add(-warmup), "measure")
	}
	w.end = w.start
	for _, rec := range w.recs {
		if rec.o.done.After(w.end) {
			w.end = rec.o.done
		}
	}
	if trace {
		if err := t.sp.mark("end"); err != nil {
			return nil, err
		}
	}
	if w.after, err = t.sp.snapshot(t.state.Engines); err != nil {
		return nil, err
	}
	if trace {
		w.spans = new(spanDump)
		if err := getJSON(t.sp.hc, t.sp.base+"/bench/spans", w.spans); err != nil {
			return nil, err
		}
	}
	return w, r.finalChecks(t)
}

// finalChecks compares per-label and total row counts with the seed rows
// plus the acknowledged INSERTs: on every engine directly (each replica
// once caught up, each shard against the rows hashed to it) and, for a
// cluster, through the coordinator.
func (r *runner) finalChecks(t *target) error {
	if err := t.sp.caughtUp(time.Minute); err != nil {
		return err
	}
	queries := []string{"SELECT label, COUNT(*) FROM txns GROUP BY label", "SELECT COUNT(*) FROM txns"}
	for i, q := range queries {
		req := checkReqBase + int64(i)
		rep, err := t.sp.nodes(tag(req) + q)
		r.count(t, "check", &outcome{status: 200, err: err})
		if err != nil {
			return err
		}
		for name, rows := range rep.Rows {
			shardOf := -1
			if n, ok := strings.CutPrefix(name, "shard-"); ok {
				shardOf, _ = strconv.Atoi(n)
			}
			if i == 0 {
				t.chk.checkCounts(name, rows, shardOf)
			} else {
				t.chk.checkTotal(name, rows, shardOf)
			}
		}
		if r.o.w.topo != "shards" {
			continue
		}
		it := &item{req: req + int64(len(queries)), k: kGroup, sql: tag(req+int64(len(queries))) + q}
		o := t.conns[0].do(it.req, it.sql)
		r.count(t, "check", &o)
		if o.err != nil {
			return fmt.Errorf("cluster check: %v", o.err)
		}
		var rows [][]any
		if err := json.Unmarshal(o.rep.Rows, &rows); err != nil {
			return err
		}
		if i == 0 {
			t.chk.checkCounts("cluster", rows, -1)
		} else {
			t.chk.checkTotal("cluster", rows, -1)
		}
	}
	return nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o options) (*result, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(o.out); err != nil { // the previous run's files
		return nil, err
	}
	r := &runner{o: o, phases: map[string]*phaseCount{}}
	if o.w.rate > 0 {
		r.items = schedule(o.w, o.seed, o.dur)
	}
	r.ds = newDataset(o.w, o.seed, insertedRows(r.items))
	renderInserts(r.items, r.ds)
	r.loads = loadItems(o.w, r.ds)
	m := newModel(o.seed)
	r.ref = reference(m, r.ds)
	r.model = filepath.Join(o.work, "model.tbm")
	if err := saveModel(r.model, m); err != nil {
		return nil, err
	}
	meta := runMeta(o)
	fmt.Printf("e2ebench workload=%s seed=%d seconds=%d trace=%t\n", o.w.name, o.seed, int(o.dur.Seconds()), o.trace)
	printJSONLine("meta", meta)

	var chks []*checker
	measureOne := func(idx, setups int, trace bool) (*window, []float64, error) {
		var t *target
		var times []float64
		for i := 0; i < setups; i++ {
			if t != nil {
				t.close(false)
			}
			var secs float64
			var err error
			if t, secs, err = r.setup(idx+i, trace); err != nil {
				return nil, nil, err
			}
			times = append(times, secs)
		}
		defer t.close(true)
		chks = append(chks, t.chk)
		w, err := r.measure(t, trace)
		return w, times, err
	}

	setups := o.setups
	if o.trace {
		setups = 1
	}
	winA, setupTimes, err := measureOne(0, setups, false)
	if err != nil {
		return nil, err
	}
	if err := writeOut(o.out, "requests.csv", winA); err != nil {
		return nil, err
	}
	e2e, notes := r.endToEnd(winA, setupTimes)
	res := &result{Metrics: e2e}
	for _, rec := range winA.recs {
		res.Attempted++
		if !rec.ok() {
			res.Failed++
		}
	}
	unattributed := 0
	if o.trace {
		winB, _, err := measureOne(setups, 1, true)
		if err != nil {
			return nil, err
		}
		if err := writeOut(o.out, "traced-requests.csv", winB); err != nil {
			return nil, err
		}
		res.Metrics, notes, unattributed = r.perLayer(winA, winB, m, notes)
	}

	for _, label := range []string{"", "traced "} {
		for _, name := range []string{"setup", "warmup", "measure", "check"} {
			if p := r.phases[label+name]; p != nil {
				fmt.Printf("phase %-14s attempted=%d succeeded=%d failed=%d %v\n", label+name, p.attempted, p.succeeded, p.attempted-p.succeeded, p.failed)
			}
		}
	}
	for _, n := range notes {
		fmt.Println(n)
	}
	res.Correct = true
	for _, c := range chks {
		for _, e := range c.errs {
			fmt.Println("check failed:", e)
		}
		if c.nErrs > 0 {
			fmt.Printf("%d correctness check(s) failed\n", c.nErrs)
			res.Correct = false
		}
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("metric %-28s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if late := quantile(lateness(winA), 0.99); o.w.rate > 0 && late > maxLateMS {
		return nil, fmt.Errorf("invalid run: generator p99 lateness %.2fms exceeds %.0fms", late, maxLateMS)
	}
	if unattributed > 0 {
		return nil, fmt.Errorf("invalid traced run: %d requests could not be attributed to layers", unattributed)
	}
	return res, nil
}

func saveModel(path string, m *nn.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := nn.Save(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeOut writes a window's requests as CSV, and a traced window's spans
// as JSON next to them, into dir.
func writeOut(dir, name string, w *window) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("req,kind,conn,due_ms,sent_ms,done_ms,status,node,bytes,late_ms\n")
	for _, rec := range w.recs {
		fmt.Fprintf(&b, "%d,%s,%d,%.3f,%.3f,%.3f,%d,%s,%d,%.3f\n", rec.it.req, rec.it.k, rec.it.conn,
			ms(rec.due.Sub(w.start)), ms(rec.o.sent.Sub(w.start)), ms(rec.o.done.Sub(w.start)),
			rec.o.status, rec.o.rep.Node, rec.o.bytes, ms(rec.late))
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644); err != nil {
		return err
	}
	if w.spans == nil {
		return nil
	}
	spans, err := json.Marshal(w.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), spans, 0o644)
}
