package main

// The server process: the serving stack built from the same constructors
// `cmd/tensorbase --serve` uses (engine.Open, server.New, SetRouter with
// repl replicas or SetCluster with a shard cluster, obs.Mux), with engine
// options at their defaults. The shipped binary is not used because its
// --demo seed fixes the data seed and serves a 32-wide model, and its
// shell's \load reaches only shard 0. Besides /query and /metrics the
// process mounts benchmark-only endpoints under /bench/ that read state
// the stack already exposes through its public API.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tensorbase/internal/engine"
	"tensorbase/internal/nn"
	"tensorbase/internal/obs"
	"tensorbase/internal/repl"
	"tensorbase/internal/retry"
	"tensorbase/internal/server"
	"tensorbase/internal/shard"
)

const (
	nReplicas = 2
	nShards   = 4
	// modelAccuracy is the accuracy LoadModel records, as the shell's demo does.
	modelAccuracy = 0.9
)

// stack is the running system under test.
type stack struct {
	db       *engine.DB // primary, or the shard-0 anchor
	engines  map[string]func() *engine.DB
	names    []string // engine names in report order
	primary  *repl.Primary
	replicas []*repl.Replica
	cluster  *shard.Cluster
	srv      *server.Server
	loadMS   []float64 // LoadModel wall time per call
}

func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	dir := fs.String("dir", "", "directory for the engines' files")
	topo := fs.String("topo", "single", "single | replicas | shards")
	modelPath := fs.String("model", "", "TBM1 model file to load on every node")
	trace := fs.Bool("trace", false, "record spans and slow-query lines for the traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := serve(*dir, *topo, *modelPath, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench serve:", err)
		return 1
	}
	return 0
}

func serve(dir, topo, modelPath string, trace bool) error {
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	st, err := build(dir, topo, tr)
	if err != nil {
		return err
	}
	defer st.close()
	if err := st.loadModel(modelPath); err != nil {
		return err
	}

	mux := obs.Mux(st.db.Registry())
	if tr == nil {
		st.srv.Attach(mux)
	} else {
		mux.Handle("/query", tr.wrap(st.srv))
		if len(st.replicas) > 0 {
			stop := tr.sampleLag(st)
			defer stop()
		}
	}
	st.mountBench(mux, tr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)
	defer hs.Close()
	fmt.Printf("READY %s\n", ln.Addr())

	// Run until stdin closes (the generator exits or releases us) or a
	// SIGTERM arrives.
	done := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(done)
	}()
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM, syscall.SIGINT)
	select {
	case <-done:
	case <-term:
	}
	return nil
}

// build opens the topology's engines and wires the server over them.
func build(dir, topo string, tr *tracer) (*stack, error) {
	eopts := func(name string) engine.Options {
		if tr == nil {
			return engine.Options{}
		}
		return engine.Options{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: tr.sink(name)}
	}
	st := &stack{engines: map[string]func() *engine.DB{}}
	addEngine := func(name string, get func() *engine.DB) {
		st.engines[name] = get
		st.names = append(st.names, name)
	}
	switch topo {
	case "single", "replicas":
		db, err := engine.Open(filepath.Join(dir, "primary.db"), eopts("primary"))
		if err != nil {
			return nil, err
		}
		st.db = db
		addEngine("primary", func() *engine.DB { return db })
		if topo == "single" {
			break
		}
		st.primary = repl.NewPrimary(db, repl.PrimaryOptions{})
		var nodes []server.ReadNode
		for i := 0; i < nReplicas; i++ {
			name := fmt.Sprintf("replica-%d", i)
			p := st.primary
			rep, err := repl.NewReplica(filepath.Join(dir, name+".db"), repl.ReplicaOptions{
				Name: name,
				Dial: func() (net.Conn, error) {
					c1, c2 := net.Pipe()
					p.Attach(c2, nil)
					return c1, nil
				},
				Engine: eopts(name),
			})
			if err != nil {
				st.close()
				return nil, err
			}
			st.replicas = append(st.replicas, rep)
			nodes = append(nodes, rep)
			addEngine(name, rep.DB)
		}
		st.srv = server.New(db, server.Options{})
		st.srv.SetRouter(server.NewRouter(db, nodes, retry.Policy{}))
	case "shards":
		nodes := make([]shard.Node, nShards)
		for i := range nodes {
			name := fmt.Sprintf("shard-%d", i)
			ln, err := shard.NewLocalNode(name, filepath.Join(dir, name+".db"), eopts(name))
			if err != nil {
				for _, n := range nodes[:i] {
					n.(interface{ Close() error }).Close()
				}
				return nil, err
			}
			nodes[i] = ln
			addEngine(name, ln.DB)
			if tr != nil {
				nodes[i] = &tracedNode{Node: ln, t: tr}
			}
		}
		cl, err := shard.NewCluster(nodes, nil)
		if err != nil {
			return nil, err
		}
		st.cluster = cl
		st.db = st.engines["shard-0"]()
		st.srv = server.New(st.db, server.Options{})
		st.srv.SetCluster(cl)
	default:
		return nil, fmt.Errorf("unknown topology %q", topo)
	}
	if st.srv == nil {
		st.srv = server.New(st.db, server.Options{})
	}
	obs.RegisterRuntime(st.db.Registry())
	return st, nil
}

// loadModel loads the model on every node: through the cluster's
// broadcast for shards, on the primary otherwise (replicas receive it
// through the log).
func (st *stack) loadModel(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	m, err := nn.Load(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return err
	}
	start := time.Now()
	if st.cluster != nil {
		err = st.cluster.LoadModel(m, modelAccuracy)
	} else {
		err = st.db.LoadModel(m, modelAccuracy)
	}
	st.loadMS = append(st.loadMS, ms(time.Since(start)))
	return err
}

func (st *stack) close() {
	if st.srv != nil {
		st.srv.Close()
	}
	for _, r := range st.replicas {
		r.Close()
	}
	if st.primary != nil {
		st.primary.Close()
	}
	switch {
	case st.cluster != nil:
		st.cluster.Close()
	case st.db != nil:
		st.db.Close()
	}
}

// stateReply is /bench/state: replication progress and set-up timings.
type stateReply struct {
	Committed uint64            `json:"committed"`
	Applied   map[string]uint64 `json:"applied"`
	LoadMS    []float64         `json:"load_model_ms"`
	Engines   []string          `json:"engines"`
}

// procReply is /bench/proc: the server process's resource use.
type procReply struct {
	UserUS     int64   `json:"user_us"`
	SysUS      int64   `json:"sys_us"`
	HWMKB      int64   `json:"hwm_kb"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCPU      float64 `json:"gc_cpu_s"`
	TotalCPU   float64 `json:"total_cpu_s"`
}

// nodesReply is /bench/nodes: one read run directly on every engine.
type nodesReply struct {
	Rows  map[string][][]any `json:"rows"`
	Error string             `json:"error,omitempty"`
}

func (st *stack) mountBench(mux *http.ServeMux, tr *tracer) {
	mux.HandleFunc("/bench/state", func(w http.ResponseWriter, _ *http.Request) {
		rep := stateReply{Committed: st.db.CommittedCSN(), Applied: map[string]uint64{}, LoadMS: st.loadMS, Engines: st.names}
		for _, r := range st.replicas {
			rep.Applied[r.Name()] = r.AppliedCSN()
		}
		writeJSONReply(w, rep)
	})
	mux.HandleFunc("/bench/proc", func(w http.ResponseWriter, _ *http.Request) {
		writeJSONReply(w, readProc())
	})
	mux.HandleFunc("/bench/metrics/", func(w http.ResponseWriter, r *http.Request) {
		get, ok := st.engines[strings.TrimPrefix(r.URL.Path, "/bench/metrics/")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		obs.Handler(get().Registry()).ServeHTTP(w, r)
	})
	mux.HandleFunc("/bench/nodes", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		rep := nodesReply{Rows: map[string][][]any{}}
		for _, name := range st.names {
			res, err := st.engines[name]().QueryContext(r.Context(), string(body))
			if err != nil {
				rep.Error = name + ": " + err.Error()
				break
			}
			rows := make([][]any, len(res.Rows))
			for i, t := range res.Rows {
				for _, v := range t {
					rows[i] = append(rows[i], v.String())
				}
			}
			rep.Rows[name] = rows
		}
		writeJSONReply(w, rep)
	})
	mux.HandleFunc("/bench/mark", func(w http.ResponseWriter, r *http.Request) {
		if tr != nil {
			tr.mark(r.URL.Query().Get("name"))
		}
	})
	mux.HandleFunc("/bench/spans", func(w http.ResponseWriter, _ *http.Request) {
		if tr == nil {
			http.Error(w, "not traced", http.StatusNotFound)
			return
		}
		writeJSONReply(w, tr.dump())
	})
}

func writeJSONReply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procReply {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	rep := procReply{
		UserUS: ru.Utime.Sec*1e6 + ru.Utime.Usec,
		SysUS:  ru.Stime.Sec*1e6 + ru.Stime.Usec,
		HWMKB:  vmHWM(),
	}
	s := make([]metrics.Sample, len(procSamples))
	copy(s, procSamples)
	metrics.Read(s)
	rep.AllocBytes = s[0].Value.Uint64()
	rep.GCCPU = s[1].Value.Float64()
	rep.TotalCPU = s[2].Value.Float64()
	return rep
}

// vmHWM reads the process's peak resident set from /proc/self/status.
func vmHWM() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			return kb
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracedNode times every call the coordinator makes into one shard and
// tags the shard's statement with the request id, so the shard engine's
// slow-query line can be joined to the request.
type tracedNode struct {
	shard.Node
	t *tracer
}

func (n *tracedNode) Query(ctx context.Context, sqlText string, floor uint64) (res *engine.Result, err error) {
	req := reqOf(ctx)
	start := n.t.now()
	res, err = n.Node.Query(ctx, tag(req)+sqlText, floor)
	n.t.addNode(nodeSpan{Req: req, Node: n.Name(), Exec: false, Start: start, End: n.t.now()})
	return res, err
}

func (n *tracedNode) Exec(ctx context.Context, sqlText string) (res *engine.Result, csn uint64, err error) {
	req := reqOf(ctx)
	start := n.t.now()
	res, csn, err = n.Node.Exec(ctx, tag(req)+sqlText)
	n.t.addNode(nodeSpan{Req: req, Node: n.Name(), Exec: true, Start: start, End: n.t.now()})
	return res, csn, err
}

// Close lets Cluster.Close reach the wrapped node.
func (n *tracedNode) Close() error {
	if c, ok := n.Node.(interface{ Close() error }); ok {
		return c.Close()
	}
	return errors.New("shard node has no Close")
}
