package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"tensorbase/internal/nn"
	"tensorbase/internal/sql"
	"tensorbase/internal/tensor"
)

func printJSONLine(tag string, v any) {
	b, _ := json.Marshal(v)
	fmt.Printf("%s %s\n", tag, b)
}

// pct returns the q-quantile of latencies, failures sorting last. A
// quantile that lands on a failure is reported as the largest float: the
// request missed every latency limit.
func pct(xs []float64, q float64) float64 {
	v := quantile(xs, q)
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// enoughForP99 reports whether a sample leaves at least ten values beyond
// its 99th percentile.
func enoughForP99(n int) bool { return n >= 1000 }

// latencies are a window's request latencies in ms, by class.
type latencies struct {
	reads, point, scatter, writes []float64
}

// latenciesOf sorts a window's latencies into classes. Point reads and
// full scans are two latency modes, so their medians are taken apart:
// point holds the WHERE id = k reads (all reads for batch_score, which has
// none) and scatter the rest.
func latenciesOf(w *window) latencies {
	var l latencies
	for i := range w.recs {
		rec := &w.recs[i]
		switch {
		case rec.it.k.isRead():
			l.reads = append(l.reads, rec.latencyMS())
			if rec.it.k == kPoint {
				l.point = append(l.point, rec.latencyMS())
			} else {
				l.scatter = append(l.scatter, rec.latencyMS())
			}
		default:
			l.writes = append(l.writes, rec.latencyMS())
		}
	}
	if len(l.point) == 0 {
		l.point = l.reads
	}
	return l
}

// endToEnd computes the gated end-to-end metrics of a measured window and
// report lines with its latencies. setups are the set-up times in seconds
// (setup_s is their median). Latencies are reported, not gated: on a
// shared 2-vCPU VM their run-to-run spread exceeds the 25% a gated metric
// may have (see README.md).
func (r *runner) endToEnd(w *window, setups []float64) (map[string]metric, []string) {
	preds, ok := 0, 0
	for _, rec := range w.recs {
		preds += rec.preds
		if rec.ok() {
			ok++
		}
	}
	secs := w.end.Sub(w.start).Seconds()
	cpuMS := float64(w.after.proc.UserUS+w.after.proc.SysUS-w.before.proc.UserUS-w.before.proc.SysUS) / 1e3
	m := map[string]metric{
		"rows_per_s":     {float64(preds) / secs, "1/s"},
		"cpu_ms_per_req": {ratio(cpuMS, float64(ok)), "ms"},
		"rss_peak_mb":    {float64(w.after.proc.HWMKB) / 1024, "MB"},
	}
	if len(setups) > 0 {
		m["setup_s"] = metric{median(setups), "s"}
	}
	l := latenciesOf(w)
	var notes []string
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"read", l.point}, {"scatter", l.scatter}, {"write", l.writes}, {"all-read", l.reads}} {
		note := fmt.Sprintf("latency %-8s p50 %9.3f ms  p99 %9.3f ms  n=%d", c.name, pct(c.xs, 0.5), pct(c.xs, 0.99), len(c.xs))
		if !enoughForP99(len(c.xs)) {
			note += " (p99 has fewer than 10 samples beyond it)"
		}
		notes = append(notes, note)
	}
	late := lateness(w)
	notes = append(notes, fmt.Sprintf("window: %d requests in %.2fs, %d reads, %d writes; generator lateness p99 %.3fms max %.3fms; CPU steal %.1f%%; setups %v s",
		len(w.recs), secs, len(l.reads), len(w.recs)-len(l.reads), quantile(late, 0.99), quantile(late, 1), 100*stealFrac(w.before, w.after), setups))
	return m, notes
}

// lateness returns how late, in ms, the generator sent each request of the
// window while its connection was idle.
func lateness(w *window) []float64 {
	var late []float64
	for _, rec := range w.recs {
		late = append(late, ms(rec.late))
	}
	return late
}

// perLayer computes the traced run's per-layer metrics: counters from the
// untraced window a (tracing turns on operator instrumentation, which
// changes what some counters count, e.g. it disables the columnar scan
// path), span self times from the traced window b, and in-process probes.
// It also returns how many requests could not be attributed to layers.
func (r *runner) perLayer(a, b *window, m *nn.Model, notes []string) (map[string]metric, []string, int) {
	out := map[string]metric{}
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	eng := a.state.Engines
	anchor := eng[:1]
	writeEng := eng
	if r.o.w.topo == "replicas" {
		writeEng = anchor // replicas apply shipped commits; clients write the primary
	}
	d := func(engines []string, name string) float64 { return delta(a.before, a.after, engines, name) }

	var predictStmts, reads, writes, replicaReads float64
	var resp []float64
	for _, rec := range a.recs {
		resp = append(resp, float64(rec.o.bytes)/1024)
		if rec.it.k.predicts() {
			predictStmts++
		}
		if rec.it.k.isRead() {
			reads++
			if strings.HasPrefix(rec.o.rep.Node, "replica") {
				replicaReads++
			}
		} else {
			writes++
		}
	}
	stmts := float64(len(a.recs))

	set("server.resp_kb", "KiB", quantile(resp, 0.5))
	set("server.rejected", "count", d(anchor, "tensorbase_http_rejected_total"))
	set("router.replica_read_frac", "frac", ratio(replicaReads, reads))
	set("router.lagged", "count", d(anchor, "tensorbase_router_lagged_total"))
	pinned, scattered := d(anchor, "tensorbase_shard_pinned_total"), d(anchor, "tensorbase_shard_scatter_total")
	set("shard.pinned_frac", "frac", ratio(pinned, pinned+scattered))
	set("engine.load_model_ms", "ms", median(a.state.LoadMS))
	set("lockmgr.waits_per_write", "count", ratio(d(writeEng, "tensorbase_lock_waits_total"), writes))
	set("udf.model_calls_per_stmt", "count", ratio(d(eng, "tensorbase_predict_udf_calls_total"), predictStmts))
	set("udf.coalesce_occupancy", "count", ratio(d(eng, "tensorbase_coalesce_participants_total"), d(eng, "tensorbase_coalesce_invocations_total")))
	set("udf.colbatch_frac", "frac", ratio(d(eng, "tensorbase_predict_colbatches_total"), d(eng, "tensorbase_predict_batches_total")))
	fan, serial := d(anchor, "tensorbase_kernel_fanouts_total"), d(anchor, "tensorbase_kernel_serial_runs_total")
	set("tensor.fanout_frac", "frac", ratio(fan, fan+serial))
	set("tensor.q8_calls_per_stmt", "count", ratio(d(anchor, "tensorbase_kernel_q8_calls_total"), predictStmts))
	hits, misses := d(eng, "tensorbase_pool_hits_total"), d(eng, "tensorbase_pool_misses_total")
	set("storage.pool_hit_frac", "frac", ratio(hits, hits+misses))
	set("storage.pages_per_stmt", "count", ratio(hits+misses, d(eng, "tensorbase_queries_total")))
	commits := d(writeEng, "tensorbase_wal_commits_total")
	set("wal.commits_per_fsync", "count", ratio(commits, d(writeEng, "tensorbase_wal_fsyncs_total")))
	set("wal.bytes_per_commit", "B", ratio(d(writeEng, "tensorbase_wal_bytes_total"), commits))
	set("wal.checkpoints", "count", d(eng, "tensorbase_checkpoints_total"))
	resident := 0.0
	for _, e := range eng {
		resident += a.after.prom[e].sum("tensorbase_blockstore_resident_bytes")
	}
	set("blockstore.resident_mb", "MB", resident/(1<<20))
	set("go.alloc_kb_per_req", "KiB", float64(a.after.proc.AllocBytes-a.before.proc.AllocBytes)/1024/stmts)
	set("go.gc_cpu_frac", "frac", ratio(a.after.proc.GCCPU-a.before.proc.GCCPU, a.after.proc.TotalCPU-a.before.proc.TotalCPU))

	sp := analyzeSpans(b)
	for _, l := range []struct{ metric, layer string }{
		{"server.self_ms", "server"}, {"server.transport_ms", "transport"},
		{"shard.coord_self_ms", "shard.coord"}, {"engine.self_ms", "engine"},
		{"exec.scan_ms", "exec.scan"}, {"exec.filter_self_ms", "exec.filter"},
		{"exec.aggregate_self_ms", "exec.aggregate"}, {"exec.sort_self_ms", "exec.sort"},
		{"exec.project_self_ms", "exec.project"}, {"udf.predict_self_ms", "udf.predict"},
	} {
		set(l.metric, "ms", quantile(sp.layer[l.layer], 0.5))
	}
	for _, k := range []kind{kScore, kPoint, kGroup, kTopN, kInsert} {
		set("engine.stmt_ms."+k.String(), "ms", quantile(sp.stmt[k], 0.5))
	}
	set("shard.node_query_ms", "ms", quantile(sp.nodeQuery, 0.5))
	set("shard.node_exec_ms", "ms", quantile(sp.nodeExec, 0.5))
	set("shard.fanout_skew", "ratio", quantile(sp.skew, 0.5))
	set("exec.rows_examined_per_row", "ratio", ratio(sp.scanned, sp.returned))
	set("repl.apply_lag_csn", "count", quantile(sp.lag, 0.99))
	set("trace.overhead", "ratio", ratio(quantile(latenciesOf(b).point, 0.5), quantile(latenciesOf(a).point, 0.5)))

	f32, q8 := forwardProbe(m, r.ds)
	set("nn.forward_f32_ms", "ms", f32)
	set("nn.forward_q8_ms", "ms", q8)
	set("tensor.gflops_f32", "GFLOP/s", forwardFlops/(f32*1e6))
	set("sql.parse_us", "us", parseProbe(a.recs))

	notes = append(notes, fmt.Sprintf("trace: %d requests, %d not attributable to layers", sp.requests, len(sp.unattributed)))
	for i, u := range sp.unattributed {
		if i == 5 {
			notes = append(notes, fmt.Sprintf("trace: ... and %d more", len(sp.unattributed)-i))
			break
		}
		notes = append(notes, "trace: "+u)
	}
	names := make([]string, 0, len(sp.layer))
	for k := range sp.layer {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		notes = append(notes, fmt.Sprintf("layer %-16s p50 self %.4f ms over %d requests", k, quantile(sp.layer[k], 0.5), len(sp.layer[k])))
	}
	return out, notes, len(sp.unattributed)
}

// spanStats are the traced window's span-derived samples.
type spanStats struct {
	layer               map[string][]float64 // self ms per request, where the layer ran
	stmt                map[kind][]float64   // engine statement ms by class
	nodeQuery, nodeExec []float64
	skew                []float64
	lag                 []float64
	scanned, returned   float64
	requests            int
	// unattributed describes each request whose spans did not nest (see
	// attribute); the traced run fails unless it is empty.
	unattributed []string
}

// analyzeSpans joins the client's records with the server's spans and
// attributes each measured request's round trip to layers.
func analyzeSpans(w *window) spanStats {
	st := spanStats{layer: map[string][]float64{}, stmt: map[kind][]float64{}}
	d := w.spans
	httpBy := map[int64]httpSpan{}
	for _, h := range d.HTTP {
		httpBy[h.Req] = h
	}
	linesBy := map[int64][]engineLine{}
	for _, l := range d.Lines {
		el, err := parseSlowLine(l.Engine, l.Line)
		if err == nil {
			linesBy[el.Req] = append(linesBy[el.Req], el)
		}
	}
	nodesBy := map[int64][]nodeSpan{}
	for _, n := range d.Nodes {
		nodesBy[n.Req] = append(nodesBy[n.Req], n)
	}
	for _, rec := range w.recs {
		if !rec.ok() {
			continue
		}
		st.requests++
		h, ok := httpBy[rec.it.req]
		if !ok {
			st.unattributed = append(st.unattributed, fmt.Sprintf("req %d: no /query span", rec.it.req))
			continue
		}
		rt := reqTrace{rtt: rec.o.done.Sub(rec.o.sent), http: h, lines: linesBy[rec.it.req], nodes: nodesBy[rec.it.req]}
		ls, err := attribute(rt)
		if err != nil {
			st.unattributed = append(st.unattributed, fmt.Sprintf("req %d (%s): %v", rec.it.req, rec.it.k, err))
		}
		for k, v := range ls {
			st.layer[k] = append(st.layer[k], v)
		}
		k := rec.it.k
		if k == kScoreQ8 {
			k = kScore
		}
		var q []float64
		for _, el := range rt.lines {
			st.stmt[k] = append(st.stmt[k], ms(el.Elapsed))
			for _, op := range el.Ops {
				if op.Name == "scan" {
					st.scanned += float64(op.Rows)
				}
			}
		}
		if rec.it.k.isRead() {
			st.returned += float64(rec.rows)
		}
		for _, n := range rt.nodes {
			dur := float64(n.End-n.Start) / 1e6
			if n.Exec {
				st.nodeExec = append(st.nodeExec, dur)
			} else {
				st.nodeQuery = append(st.nodeQuery, dur)
				q = append(q, dur)
			}
		}
		if len(q) >= 2 {
			st.skew = append(st.skew, ratio(quantile(q, 1), median(q)))
		}
	}
	lo, hi := d.Marks["start"], d.Marks["end"]
	for _, s := range d.Lag {
		if s.T >= lo && s.T <= hi {
			st.lag = append(st.lag, float64(s.Lag))
		}
	}
	return st
}

// forwardProbe times Model.Forward on one 256-row batch of the workload's
// rows, for the model and its int8-resident twin: the median of 15 runs
// each, in ms.
func forwardProbe(m *nn.Model, ds *dataset) (f32, q8 float64) {
	x := tensor.New(256, len(ds.feats[0]))
	for i := 0; i < 256; i++ {
		copy(x.Row(i), ds.feats[i%len(ds.feats)])
	}
	timeIt := func(m *nn.Model) float64 {
		var ts []float64
		for i := 0; i < 17; i++ {
			start := time.Now()
			m.Forward(x)
			if i >= 2 {
				ts = append(ts, ms(time.Since(start)))
			}
		}
		return median(ts)
	}
	f32 = timeIt(m)
	if qm, err := nn.QuantizeResident(m); err == nil {
		q8 = timeIt(qm)
	}
	return f32, q8
}

// forwardFlops is the operation count of one 256-row forward pass through
// Fraud-FC (28 → hidden → 2), counting a multiply-add as 2.
const forwardFlops = 2 * 256 * (28*modelHidden + modelHidden*2)

// parseProbe times sql.Parse over the window's statement texts: the median
// over 5 passes of the mean per statement, in µs.
func parseProbe(recs []record) float64 {
	var texts []string
	for i := 0; i < len(recs) && len(texts) < 500; i++ {
		texts = append(texts, recs[i].it.sql)
	}
	var ts []float64
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		for _, t := range texts {
			sql.Parse(t)
		}
		ts = append(ts, float64(time.Since(start))/1e3/float64(len(texts)))
	}
	return median(ts)
}
