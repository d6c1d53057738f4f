package main

import (
	"math"
	"testing"
	"time"
)

func TestParseSlowLine(t *testing.T) {
	line := `slow-query elapsed=1.5ms rows=1 stmt="/* req=42 */ SELECT id, PREDICT(Fraud-FC-1024, features) FROM txns WHERE id = 3" spans=[project 1r 1.4ms -> predict 1r 1.3ms -> filter 1r 1.1ms -> scan 4096r 900µs]` + "\n"
	el, err := parseSlowLine("replica-1", line)
	if err != nil {
		t.Fatal(err)
	}
	if el.Engine != "replica-1" || el.Req != 42 || el.Elapsed != 1500*time.Microsecond || el.Rows != 1 {
		t.Fatalf("parsed %+v", el)
	}
	want := []opSpan{{"project", 1, 1400 * time.Microsecond}, {"predict", 1, 1300 * time.Microsecond},
		{"filter", 1, 1100 * time.Microsecond}, {"scan", 4096, 900 * time.Microsecond}}
	if len(el.Ops) != len(want) {
		t.Fatalf("ops %+v", el.Ops)
	}
	for i := range want {
		if el.Ops[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v", i, el.Ops[i], want[i])
		}
	}

	// Writes carry no spans; a quote inside the statement is escaped.
	el, err = parseSlowLine("shard-2", `slow-query elapsed=312µs rows=4 stmt="/* req=9 */ INSERT INTO t VALUES ('a\"b -> c')"`)
	if err != nil || el.Req != 9 || el.Rows != 4 || len(el.Ops) != 0 || el.Elapsed != 312*time.Microsecond {
		t.Fatalf("write line: %+v %v", el, err)
	}

	for _, bad := range []string{
		"hello",
		`slow-query elapsed=xyz rows=1 stmt="x"`,
		`slow-query elapsed=1ms rows=1 stmt="x" spans=[scan 1 1ms]`,
		`slow-query elapsed=1ms rows=1 stmt="x`,
	} {
		if _, err := parseSlowLine("e", bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestStatementSelfClampsPipelinedInputs(t *testing.T) {
	// The predict operator's input ran on its own goroutine and reports
	// more wall time than predict itself: it is clamped to its parent.
	el := engineLine{Elapsed: 10 * time.Millisecond, Ops: []opSpan{
		{"project", 5, 9 * time.Millisecond},
		{"predict", 5, 6 * time.Millisecond},
		{"scan", 5, 7 * time.Millisecond},
	}}
	l := statementSelf(el)
	want := layers{"engine": 1, "exec.project": 3, "udf.predict": 0, "exec.scan": 6}
	for k, v := range want {
		if !near(l[k], v) {
			t.Errorf("%s = %v, want %v", k, l[k], v)
		}
	}
	if !near(l.total(), 10) {
		t.Errorf("total %v, want 10", l.total())
	}
}

func TestSharesSplitOverlapEvenly(t *testing.T) {
	// [0,10) alone for 0..4, overlaps [4,8) for 4..8, [12,14) alone.
	got := shares([]interval{{0, 10}, {4, 8}, {12, 14}, {5, 5}})
	want := []float64{4 + 2 + 2, 2, 2, 0}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Fatalf("shares = %v, want %v", got, want)
		}
	}
}

func TestAttributeSumsToRoundTrip(t *testing.T) {
	const msNS = int64(time.Millisecond)
	point := engineLine{Engine: "primary", Elapsed: 3 * time.Millisecond, Ops: []opSpan{{"project", 1, 2 * time.Millisecond}, {"scan", 100, time.Millisecond}}}
	cases := map[string]struct {
		rt     reqTrace
		broken bool // a join fails; the layers still sum to the round trip
	}{
		"single node": {rt: reqTrace{rtt: 5 * time.Millisecond, http: httpSpan{Start: 0, Hdr: 4 * msNS, End: 4 * msNS},
			lines: []engineLine{point}}},
		"engine longer than its http span": {broken: true, rt: reqTrace{rtt: 5 * time.Millisecond,
			http: httpSpan{Start: 0, Hdr: 2 * msNS, End: 2 * msNS}, lines: []engineLine{point}}},
		"http span longer than the round trip": {broken: true, rt: reqTrace{rtt: time.Millisecond,
			http: httpSpan{Start: 0, Hdr: 4 * msNS, End: 4 * msNS}, lines: []engineLine{point}}},
		"no engine statement": {broken: true, rt: reqTrace{rtt: 5 * time.Millisecond,
			http: httpSpan{Start: 0, Hdr: 4 * msNS, End: 4 * msNS}}},
		"overlapping shard calls": {rt: reqTrace{rtt: 20 * time.Millisecond,
			http: httpSpan{Start: 0, Hdr: 15 * msNS, End: 16 * msNS},
			nodes: []nodeSpan{
				{Node: "shard-0", Start: 1 * msNS, End: 9 * msNS},
				{Node: "shard-1", Start: 2 * msNS, End: 12 * msNS},
				{Node: "shard-2", Start: 2 * msNS, End: 5 * msNS},
			},
			lines: []engineLine{
				{Engine: "shard-1", Elapsed: 9 * time.Millisecond, Ops: []opSpan{{"aggregate", 2, 8 * time.Millisecond}, {"scan", 10, 3 * time.Millisecond}}},
				{Engine: "shard-0", Elapsed: 7 * time.Millisecond, Ops: []opSpan{{"aggregate", 2, 6 * time.Millisecond}, {"scan", 10, 2 * time.Millisecond}}},
				{Engine: "shard-2", Elapsed: 2 * time.Millisecond},
			}}},
		"node call without its statement": {broken: true, rt: reqTrace{rtt: 20 * time.Millisecond,
			http:  httpSpan{Start: 0, Hdr: 15 * msNS, End: 16 * msNS},
			nodes: []nodeSpan{{Node: "shard-0", Start: 1 * msNS, End: 9 * msNS}},
			lines: []engineLine{{Engine: "shard-1", Elapsed: 2 * time.Millisecond}}}},
		"node call after the response header": {broken: true, rt: reqTrace{rtt: 20 * time.Millisecond,
			http:  httpSpan{Start: 0, Hdr: 5 * msNS, End: 16 * msNS},
			nodes: []nodeSpan{{Node: "shard-0", Start: 1 * msNS, End: 9 * msNS}},
			lines: []engineLine{{Engine: "shard-0", Elapsed: 2 * time.Millisecond}}}},
	}
	for name, c := range cases {
		l, err := attribute(c.rt)
		if (err != nil) != c.broken {
			t.Errorf("%s: error %v, want one: %v", name, err, c.broken)
		}
		if !near(l.total(), ms(c.rt.rtt)) {
			t.Errorf("%s: layers %v sum to %v, round trip %v", name, l, l.total(), ms(c.rt.rtt))
		}
		for k, v := range l {
			if v < -1e-12 {
				t.Errorf("%s: negative self time %s = %v", name, k, v)
			}
		}
	}

	// Worked numbers for the sharded case: the node calls cover [1,12) of
	// the [0,15) execution, so the coordinator keeps 4ms and the server
	// the 1ms tail after the header.
	l, _ := attribute(cases["overlapping shard calls"].rt)
	for k, v := range map[string]float64{"transport": 4, "server": 1, "shard.coord": 4} {
		if !near(l[k], v) {
			t.Errorf("%s = %v, want %v", k, l[k], v)
		}
	}
	nodeLayers := l["shard.node"] + l["engine"] + l["exec.aggregate"] + l["exec.scan"]
	if !near(nodeLayers, 11) {
		t.Errorf("node-side layers sum to %v, want the 11ms union", nodeLayers)
	}
}
