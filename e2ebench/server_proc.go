package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// live holds the running server processes, so an interrupted benchmark
// can stop them before it exits.
var live = struct {
	sync.Mutex
	procs map[*serverProc]bool
}{procs: map[*serverProc]bool{}}

// stopAll stops every running server process and waits for each.
func stopAll() {
	live.Lock()
	var procs []*serverProc
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.Unlock()
	for _, p := range procs {
		p.stop(false)
	}
}

// serverProc is one running server process.
type serverProc struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	base    string
	hc      *http.Client
	started time.Time
}

// startServer launches `e2ebench serve` and waits for its READY line.
func startServer(dir, topo, model string, trace bool) (*serverProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(self, "serve", "-dir", dir, "-topo", topo, "-model", model, fmt.Sprintf("-trace=%t", trace))
	cmd.Stderr = logf
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	sp := &serverProc{cmd: cmd, stdin: stdin, started: time.Now(),
		hc: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	live.Lock()
	live.procs[sp] = true
	live.Unlock()
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		line := ""
		if sc.Scan() {
			line = sc.Text()
		}
		ready <- line
		io.Copy(io.Discard, stdout)
	}()
	select {
	case line := <-ready:
		addr, ok := strings.CutPrefix(line, "READY ")
		if !ok {
			sp.stop(false)
			return nil, fmt.Errorf("server did not start (see %s): %q", filepath.Join(dir, "server.log"), line)
		}
		sp.base = "http://" + addr
	case <-time.After(120 * time.Second):
		sp.stop(false)
		return nil, fmt.Errorf("server start timed out")
	}
	return sp, nil
}

// stop ends the process and waits for it: gracefully by closing its stdin,
// or at once by killing it. A graceful stop that hangs is killed.
func (s *serverProc) stop(graceful bool) {
	live.Lock()
	running := live.procs[s]
	delete(live.procs, s)
	live.Unlock()
	if !running {
		return
	}
	s.hc.CloseIdleConnections()
	if !graceful {
		s.cmd.Process.Kill()
	}
	s.stdin.Close()
	done := make(chan struct{})
	go func() {
		s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

func (s *serverProc) state() (stateReply, error) {
	var st stateReply
	err := getJSON(s.hc, s.base+"/bench/state", &st)
	return st, err
}

// caughtUp waits until every replica has applied the primary's committed
// CSN.
func (s *serverProc) caughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := s.state()
		if err != nil {
			return err
		}
		behind := false
		for _, a := range st.Applied {
			behind = behind || a < st.Committed
		}
		if !behind {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not catch up: committed %d, applied %v", st.Committed, st.Applied)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *serverProc) mark(name string) error {
	_, err := getText(s.hc, s.base+"/bench/mark?name="+name)
	return err
}

// nodes runs one read on every engine directly.
func (s *serverProc) nodes(sqlText string) (nodesReply, error) {
	var rep nodesReply
	resp, err := s.hc.Post(s.base+"/bench/nodes", "text/plain", strings.NewReader(sqlText))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return rep, err
	}
	if rep.Error != "" {
		return rep, fmt.Errorf("%s", rep.Error)
	}
	return rep, nil
}

// snapshot is the server's counters at one instant.
type snapshot struct {
	proc procReply
	prom map[string]promSet // by engine
	// cpu is the machine's aggregate CPU time by state (the first line of
	// /proc/stat), to report how much the hypervisor stole.
	cpu []float64
}

// machineCPU reads the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal, in clock ticks.
func machineCPU() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var out []float64
	for _, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stealFrac is the share of the machine's CPU time the hypervisor took
// between two snapshots.
func stealFrac(a, b snapshot) float64 {
	if len(a.cpu) < 8 || len(b.cpu) < 8 {
		return 0
	}
	total := 0.0
	for i := range a.cpu[:8] {
		total += b.cpu[i] - a.cpu[i]
	}
	return ratio(b.cpu[7]-a.cpu[7], total)
}

func (s *serverProc) snapshot(engines []string) (snapshot, error) {
	snap := snapshot{prom: map[string]promSet{}, cpu: machineCPU()}
	if err := getJSON(s.hc, s.base+"/bench/proc", &snap.proc); err != nil {
		return snap, err
	}
	for _, e := range engines {
		text, err := getText(s.hc, s.base+"/bench/metrics/"+e)
		if err != nil {
			return snap, err
		}
		snap.prom[e] = parseProm(text)
	}
	return snap, nil
}
