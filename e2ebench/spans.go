package main

// Span arithmetic for the traced run. A request's round trip splits into
// layers whose self times add up to it exactly:
//
//	transport  client round trip minus the server's /query span
//	server     the /query span minus its engine (or coordinator) child
//	shard.coord  coordinator time outside every shard node call
//	shard.node   a node call minus its engine statement
//	engine     a statement minus its outermost operator
//	exec.*, udf.predict  each operator minus its input operator
//
// Operator spans come from the slow-query log, which reports each
// operator's inclusive wall time along the plan chain, outermost first.

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// opSpan is one operator's inclusive time from a slow-query line.
type opSpan struct {
	Name    string
	Rows    int64
	Elapsed time.Duration
}

// engineLine is a parsed slow-query log line.
type engineLine struct {
	Engine  string
	Req     int64
	Elapsed time.Duration
	Rows    int64
	Ops     []opSpan // outermost first
}

var reqTag = regexp.MustCompile(`/\* req=(\d+) \*/`)

// parseSlowLine parses
//
//	slow-query elapsed=1.2ms rows=3 stmt="/* req=7 */ SELECT ..." spans=[project 3r 1.1ms -> scan 3r 900µs]
//
// as written by obs.SlowLog. The spans part is absent for writes.
func parseSlowLine(engine, line string) (engineLine, error) {
	el := engineLine{Engine: engine, Req: -1}
	line = strings.TrimSpace(line)
	rest, ok := strings.CutPrefix(line, "slow-query elapsed=")
	if !ok {
		return el, fmt.Errorf("not a slow-query line: %q", line)
	}
	dur, rest, _ := strings.Cut(rest, " rows=")
	d, err := time.ParseDuration(dur)
	if err != nil {
		return el, fmt.Errorf("elapsed %q: %w", dur, err)
	}
	el.Elapsed = d
	rows, rest, _ := strings.Cut(rest, " stmt=")
	if el.Rows, err = strconv.ParseInt(rows, 10, 64); err != nil {
		return el, fmt.Errorf("rows %q: %w", rows, err)
	}
	quoted, err := strconv.QuotedPrefix(rest)
	if err != nil {
		return el, fmt.Errorf("stmt: %w", err)
	}
	stmt, _ := strconv.Unquote(quoted)
	if m := reqTag.FindStringSubmatch(stmt); m != nil {
		el.Req, _ = strconv.ParseInt(m[1], 10, 64)
	}
	rest = strings.TrimSpace(rest[len(quoted):])
	if rest == "" {
		return el, nil
	}
	spans, ok := strings.CutPrefix(rest, "spans=[")
	if !ok || !strings.HasSuffix(spans, "]") {
		return el, fmt.Errorf("spans: %q", rest)
	}
	for _, part := range strings.Split(strings.TrimSuffix(spans, "]"), " -> ") {
		f := strings.Fields(part)
		if len(f) != 3 || !strings.HasSuffix(f[1], "r") {
			return el, fmt.Errorf("span %q", part)
		}
		n, err := strconv.ParseInt(strings.TrimSuffix(f[1], "r"), 10, 64)
		if err != nil {
			return el, fmt.Errorf("span rows %q: %w", part, err)
		}
		d, err := time.ParseDuration(f[2])
		if err != nil {
			return el, fmt.Errorf("span time %q: %w", part, err)
		}
		el.Ops = append(el.Ops, opSpan{Name: f[0], Rows: n, Elapsed: d})
	}
	return el, nil
}

// opLayer names the layer an operator's self time belongs to.
func opLayer(op string) string {
	if op == "predict" {
		return "udf.predict"
	}
	return "exec." + op
}

// layers accumulates self times in milliseconds by layer name.
type layers map[string]float64

func (l layers) add(name string, d float64) { l[name] += d }

func (l layers) addScaled(o layers, f float64) {
	for k, v := range o {
		l[k] += v * f
	}
}

func (l layers) total() float64 {
	s := 0.0
	for _, v := range l {
		s += v
	}
	return s
}

// statementSelf splits one engine statement into engine self time and
// operator self times. Inclusive times nest: each operator's input is
// clamped to its parent, because a pipelined input runs on its own
// goroutine and can report more wall time than the operator reading it.
// The parts sum to the statement's elapsed time.
func statementSelf(el engineLine) layers {
	out := layers{}
	parent := ms(el.Elapsed)
	eff := make([]float64, len(el.Ops))
	for i, op := range el.Ops {
		eff[i] = min(ms(op.Elapsed), parent)
		parent = eff[i]
	}
	outer := 0.0
	if len(eff) > 0 {
		outer = eff[0]
	}
	out.add("engine", ms(el.Elapsed)-outer)
	for i, op := range el.Ops {
		inner := 0.0
		if i+1 < len(eff) {
			inner = eff[i+1]
		}
		out.add(opLayer(op.Name), eff[i]-inner)
	}
	return out
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// shares splits the union of possibly overlapping intervals among them:
// each instant covered by c intervals gives each of them 1/c of its length.
// The shares sum to the length of the union, in nanoseconds.
func shares(ivs []interval) []float64 {
	type edge struct {
		t    int64
		i    int
		open bool
	}
	var edges []edge
	for i, iv := range ivs {
		if iv.end > iv.start {
			edges = append(edges, edge{iv.start, i, true}, edge{iv.end, i, false})
		}
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].t < edges[b].t })
	out := make([]float64, len(ivs))
	active := map[int]bool{}
	last := int64(0)
	for _, e := range edges {
		if n := len(active); n > 0 {
			part := float64(e.t-last) / float64(n)
			for i := range active {
				out[i] += part
			}
		}
		last = e.t
		if e.open {
			active[e.i] = true
		} else {
			delete(active, e.i)
		}
	}
	return out
}

// reqTrace is everything recorded for one request.
type reqTrace struct {
	rtt   time.Duration // client round trip
	http  httpSpan
	lines []engineLine // statements run on the request's behalf
	nodes []nodeSpan   // coordinator calls into shard nodes
}

// slackMS is how far a child span may exceed its parent before the join
// counts as failed: the two are read from the same monotonic clock, so
// only rounding separates them.
const slackMS = 0.001

// attribute splits a request's round trip into layer self times that sum
// to it. With shard node calls, the coordinator's execution time (request
// start to response header) outside the union of node calls is
// shard.coord, the header-to-end tail is server, and the union is shared
// among overlapping node calls by shares, each call's share divided among
// its node, engine and operator layers in proportion to their self times.
// Without node calls, engine statements run one after another inside the
// /query span.
//
// The error reports a join that failed: a request without an engine
// statement, a node call without its node's statement or outside the
// request, a statement no node call ran, or children longer than their
// parent. The layers are still returned, scaled to fit.
func attribute(rt reqTrace) (layers, error) {
	var errs []error
	out := layers{}
	httpMS := float64(rt.http.End-rt.http.Start) / 1e6
	if len(rt.nodes) == 0 {
		if len(rt.lines) == 0 {
			errs = append(errs, fmt.Errorf("no engine statement"))
		}
		child := layers{}
		for _, el := range rt.lines {
			child.addScaled(statementSelf(el), 1)
		}
		errs = append(errs, fit(out, child, httpMS, "server"))
	} else {
		ivs := make([]interval, len(rt.nodes))
		for i, n := range rt.nodes {
			if n.Start < rt.http.Start || n.End > rt.http.Hdr {
				errs = append(errs, fmt.Errorf("%s call outside the request's execution", n.Node))
			}
			ivs[i] = interval{max(n.Start, rt.http.Start), min(n.End, rt.http.Hdr)}
		}
		used := make([]bool, len(rt.lines))
		child := layers{}
		for i, w := range shares(ivs) {
			n := rt.nodes[i]
			one := layers{}
			found := false
			for j, el := range rt.lines {
				if !used[j] && el.Engine == n.Node {
					used[j], found = true, true
					one.addScaled(statementSelf(el), 1)
					break
				}
			}
			if !found {
				errs = append(errs, fmt.Errorf("%s call without a statement", n.Node))
			}
			callMS := float64(n.End-n.Start) / 1e6
			call := layers{}
			errs = append(errs, fit(call, one, callMS, "shard.node"))
			if callMS > 0 {
				child.addScaled(call, w/1e6/callMS)
			}
		}
		for j, u := range used {
			if !u {
				errs = append(errs, fmt.Errorf("%s statement outside every node call", rt.lines[j].Engine))
			}
		}
		execMS := float64(rt.http.Hdr-rt.http.Start) / 1e6
		errs = append(errs, fit(out, child, execMS, "shard.coord"))
		out.add("server", float64(rt.http.End-rt.http.Hdr)/1e6)
	}
	total := layers{}
	errs = append(errs, fit(total, out, ms(rt.rtt), "transport"))
	return total, errors.Join(errs...)
}

// fit adds child's layers into out as the content of a parent span of
// length parent ms, and the remainder as the parent's own self time under
// name, so the result sums to parent. A child longer than its parent by
// more than slackMS is an error; it is scaled down to fit.
func fit(out, child layers, parent float64, name string) error {
	c := child.total()
	if c <= parent {
		out.addScaled(child, 1)
		out.add(name, parent-c)
		return nil
	}
	out.addScaled(child, parent/c)
	if c > parent+slackMS {
		return fmt.Errorf("%s: children take %.4fms of a %.4fms span", name, c, parent)
	}
	return nil
}
