package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// reqHeader carries the request id from the generator to the server
// process; the traced /query handler moves it into the request context.
const reqHeader = "X-Req-Id"

type reqKey struct{}

func reqOf(ctx context.Context) int64 {
	req, _ := ctx.Value(reqKey{}).(int64)
	return req
}

// httpSpan is one /query call inside the server process. Times are
// nanoseconds since the tracer started; Hdr is when the response header
// was written, which ends the statement's execution.
type httpSpan struct {
	Req    int64 `json:"req"`
	Start  int64 `json:"start"`
	Hdr    int64 `json:"hdr"`
	End    int64 `json:"end"`
	Status int   `json:"status"`
}

// nodeSpan is one coordinator call into a shard node.
type nodeSpan struct {
	Req   int64  `json:"req"`
	Node  string `json:"node"`
	Exec  bool   `json:"exec"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// slowLine is one slow-query log line and the engine that wrote it.
type slowLine struct {
	Engine string `json:"engine"`
	Line   string `json:"line"`
}

// spanDump is everything a traced server recorded, fetched once at the end.
type spanDump struct {
	HTTP  []httpSpan  `json:"http"`
	Nodes []nodeSpan  `json:"nodes"`
	Lines []slowLine  `json:"lines"`
	Lag   []lagSample `json:"lag"`
	// Marks are generator-set instants (the measured window's bounds).
	Marks map[string]int64 `json:"marks"`
}

// lagSample is how far one replica's applied CSN trailed the primary's
// committed CSN at time T.
type lagSample struct {
	T   int64  `json:"t"`
	Lag uint64 `json:"lag"`
}

// tracer keeps the traced run's spans in memory; nothing is written out
// until dump.
type tracer struct {
	t0 time.Time
	mu sync.Mutex
	d  spanDump
}

func newTracer() *tracer { return &tracer{t0: time.Now(), d: spanDump{Marks: map[string]int64{}}} }

func (t *tracer) mark(name string) {
	t.mu.Lock()
	t.d.Marks[name] = t.now()
	t.mu.Unlock()
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) addNode(s nodeSpan) {
	t.mu.Lock()
	t.d.Nodes = append(t.d.Nodes, s)
	t.mu.Unlock()
}

func (t *tracer) dump() spanDump {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.d
}

// sink returns the slow-query log writer for one engine. obs.SlowLog
// writes each line with a single Write.
func (t *tracer) sink(engine string) *lineSink { return &lineSink{t: t, engine: engine} }

type lineSink struct {
	t      *tracer
	engine string
}

func (s *lineSink) Write(p []byte) (int, error) {
	s.t.mu.Lock()
	s.t.d.Lines = append(s.t.d.Lines, slowLine{Engine: s.engine, Line: string(p)})
	s.t.mu.Unlock()
	return len(p), nil
}

// wrap times each /query call and puts its request id in the context,
// where the shard node wrappers find it.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		sw := &spanWriter{ResponseWriter: w, t: t, span: httpSpan{Req: req, Start: t.now()}}
		h.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqKey{}, req)))
		sw.span.End = t.now()
		if sw.span.Hdr == 0 {
			sw.span.Hdr = sw.span.End
		}
		t.mu.Lock()
		t.d.HTTP = append(t.d.HTTP, sw.span)
		t.mu.Unlock()
	})
}

type spanWriter struct {
	http.ResponseWriter
	t    *tracer
	span httpSpan
}

func (w *spanWriter) WriteHeader(status int) {
	if w.span.Hdr == 0 {
		w.span.Hdr = w.t.now()
		w.span.Status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

// sampleLag records, every 5ms until stop is called, how far each replica's
// applied CSN trails the primary's committed CSN.
func (t *tracer) sampleLag(st *stack) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				c := st.db.CommittedCSN()
				now := t.now()
				t.mu.Lock()
				for _, r := range st.replicas {
					t.d.Lag = append(t.d.Lag, lagSample{T: now, Lag: c - min(c, r.AppliedCSN())})
				}
				t.mu.Unlock()
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
	}
}
