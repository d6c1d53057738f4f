package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		if w.rate == 0 {
			continue
		}
		a, b := schedule(w, 7, 3*time.Second), schedule(w, 7, 3*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different schedules", w.name)
		}
		renderInserts(a, newDataset(w, 7, insertedRows(a)))
		renderInserts(b, newDataset(w, 7, insertedRows(b)))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different statement texts", w.name)
		}
		if c := schedule(w, 8, 3*time.Second); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		for i, it := range a {
			if i > 0 && it.due < a[i-1].due {
				t.Fatalf("%s: schedule not in due order at %d", w.name, i)
			}
			if it.warm != (it.due < warmup) {
				t.Fatalf("%s: item %d due %v marked warm=%v", w.name, i, it.due, it.warm)
			}
			if it.sql == "" || it.req != int64(i) {
				t.Fatalf("%s: item %d has req %d sql %q", w.name, i, it.req, it.sql)
			}
		}
		// The rate is honoured: 4s of traffic at w.rate, within 15%.
		if n, want := float64(len(a)), w.rate*4; n < want*0.85 || n > want*1.15 {
			t.Fatalf("%s: %v requests in 4s at %v/s", w.name, n, w.rate)
		}
	}
}

func TestClosedStreamIsAFunctionOfTheSeed(t *testing.T) {
	w, _ := lookupWorkload("batch_score")
	a, b := newClosedStream(w, 3, 1), newClosedStream(w, 3, 1)
	q8 := 0
	for i := 0; i < 400; i++ {
		x, y := a.next(), b.next()
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("statement %d differs: %q vs %q", i, x.sql, y.sql)
		}
		if x.req != 1+clients*int64(i) {
			t.Fatalf("statement %d has req %d", i, x.req)
		}
		if x.k == kScoreQ8 {
			q8++
		}
	}
	if q8 < 60 || q8 > 140 {
		t.Fatalf("%d of 400 statements quantized, want about a quarter", q8)
	}
}

func TestReadYourWritesTargets(t *testing.T) {
	w, _ := lookupWorkload("point_rw")
	items := schedule(w, 5, 20*time.Second)
	written := map[int64]int{} // id -> connection
	own := 0
	for _, it := range items {
		switch it.k {
		case kInsert:
			for _, id := range it.ids {
				written[id] = it.conn
			}
		case kPoint:
			if it.key >= int64(w.rows) {
				conn, ok := written[it.key]
				if !ok || conn != it.conn {
					t.Fatalf("req %d reads id %d that its connection did not write first", it.req, it.key)
				}
				own++
			}
		}
	}
	if own == 0 {
		t.Fatal("no read targets a row its session wrote")
	}
}
