// Command e2ebench is tensorbase's end-to-end serving benchmark. It serves
// seeded traffic over HTTP against the serving stack in its own server
// process, checks every answer, and prints the metrics named in
// BENCHMARK.json. Run it from the repository root:
//
//	bash e2ebench/run.sh --workload point_rw --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metrics and how
// the traced run attributes time to layers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// setupsPerRun is how many times an untraced run sets a server up;
// setup_s is the median.
const setupsPerRun = 3

func benchMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "batch_score | point_rw | shard_mix")
	seed := fs.Int64("seed", 1, "workload seed: data, model weights and request stream")
	seconds := fs.Int("seconds", 30, "length of the measured window")
	trace := fs.Int("trace", 0, "1 = also run a traced server and print per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: bad arguments:", err)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	work := filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(work)
	defer stopAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.RemoveAll(work)
		os.Exit(1)
	}()
	o := options{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		setups: setupsPerRun, work: work, root: root, out: filepath.Join(build, "out", w.name)}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
