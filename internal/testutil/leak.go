// Package testutil holds shared test helpers. It must only be imported from
// _test.go files.
package testutil

import (
	"runtime"
	"strings"
	"time"
)

// TB is the subset of testing.TB the helpers need (avoids importing testing
// into non-test binaries that link this package).
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

// NoLeakedGoroutines snapshots the live goroutines and registers a cleanup
// that fails the test if goroutines started during the test are still
// running when it ends. Teardown is asynchronous (worker pools drain,
// producers notice closed channels), so the check polls for up to two
// seconds before declaring a leak, and reports the full stack of every
// leaked goroutine.
//
// Use it first in any test that exercises the PREDICT path,
// single-flight waits, or query cancellation: those are exactly the places
// where an early error return can strand a goroutine.
func NoLeakedGoroutines(t TB) {
	t.Helper()
	before := goroutineIDs()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			leaked := leakedSince(before)
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("leaked %d goroutine(s):\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// goroutineStacks returns one stack dump per live goroutine.
func goroutineStacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return strings.Split(strings.TrimSpace(string(buf)), "\n\n")
}

// goroutineID extracts the numeric ID from a "goroutine N [state]:" header.
func goroutineID(stack string) string {
	header, _, _ := strings.Cut(stack, "\n")
	fields := strings.Fields(header)
	if len(fields) >= 2 && fields[0] == "goroutine" {
		return fields[1]
	}
	return ""
}

func goroutineIDs() map[string]bool {
	ids := make(map[string]bool)
	for _, s := range goroutineStacks() {
		if id := goroutineID(s); id != "" {
			ids[id] = true
		}
	}
	return ids
}

// leakedSince returns the stacks of goroutines not alive at snapshot time,
// excluding the runtime's and the test framework's own machinery.
func leakedSince(before map[string]bool) []string {
	var leaked []string
	for _, s := range goroutineStacks() {
		id := goroutineID(s)
		if id == "" || before[id] || benign(s) {
			continue
		}
		leaked = append(leaked, s)
	}
	return leaked
}

// benign reports whether a goroutine belongs to the runtime or the testing
// framework rather than to code under test.
func benign(stack string) bool {
	for _, marker := range []string{
		"testing.tRunner",
		"testing.(*T).Run",
		"testing.runFuzzing",
		"runtime.gc",
		"runtime.bgsweep",
		"runtime.bgscavenge",
		"created by runtime",
		"runtime/pprof",
		"os/signal.signal_recv",
	} {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}
