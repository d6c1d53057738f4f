package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the server process: the
// benchmark starts servers by re-running its own executable with "serve".
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// sameMetrics checks that a result carries exactly the listed metrics,
// with their units.
func sameMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		var names []string
		for k := range got {
			names = append(names, k)
		}
		sort.Strings(names)
		t.Errorf("%s: %d metrics %v, BENCHMARK.json lists %d", what, len(got), names, len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: missing %s", what, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: %s in %s, BENCHMARK.json says %s", what, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload for two seconds, untraced and traced, with
// every correctness check on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	s := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{w: w, seed: 3, dur: 2 * time.Second, trace: trace, setups: 1, work: t.TempDir(), root: "..", out: t.TempDir()}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if trace {
				sameMetrics(t, w.name+" traced", res.Metrics, s.PerLayer)
			} else {
				sameMetrics(t, w.name, res.Metrics, s.EndToEnd)
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: %s = %v, end-to-end metrics must be positive", w.name, name, m.Value)
					}
				}
			}
		}
	}
}
