package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// meta describes the machine and the code a result came from. The speed
// probe is recorded so runner drift is visible next to the numbers; it is
// never applied to them.
type meta struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit when the tree is a checkout, otherwise a
	// hash of the module's Go sources and go.mod files.
	Commit string `json:"commit"`
	// ProbeUS is the median time of the frozen reference kernel over one
	// 256×28 · (1024×28)ᵀ product, and ProbeGFLOPS its rate.
	ProbeUS     float64 `json:"probe_us"`
	ProbeGFLOPS float64 `json:"probe_gflops"`
}

func runMeta(o options) meta {
	m := meta{GoMaxProcs: runtime.GOMAXPROCS(0), CPU: cpuModel(), GoVersion: runtime.Version(), Commit: commitID(o.root)}
	m.ProbeUS = kernelProbe()
	m.ProbeGFLOPS = 2 * probeM * probeK * probeN / (m.ProbeUS * 1e3)
	return m
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func commitID(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel))
		h.Write(b)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// The probe's shape is Fraud-FC-1024's first layer over one PREDICT
// micro-batch.
const (
	probeM = 256
	probeK = 28
	probeN = 1024
)

// kernelProbe times frozenMatmulTransBRows: the median of 31 runs, in µs.
func kernelProbe() float64 {
	rng := rand.New(rand.NewSource(1))
	a := make([]float32, probeM*probeK)
	b := make([]float32, probeN*probeK)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	out := make([]float32, probeM*probeN)
	var ts []float64
	for i := 0; i < 33; i++ {
		start := time.Now()
		frozenMatmulTransBRows(out, a, b, 0, probeM, probeK, probeN)
		if i >= 2 {
			ts = append(ts, float64(time.Since(start))/1e3)
		}
	}
	return median(ts)
}

// frozenMatmulTransBRows is a frozen copy of tensor.matmulTransBRows as the
// repository's seed shipped it: rows [r0,r1) of a × bᵀ, four output
// columns per pass with a four-step unrolled tail. It must not change, so
// that its timing measures the machine rather than the code.
func frozenMatmulTransBRows(out, a, b []float32, r0, r1, k, n int) {
	for i := r0; i < r1; i++ {
		arow := a[i*k : (i+1)*k : (i+1)*k]
		orow := out[i*n : (i+1)*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k : (j+4)*k]
			var s0, s1, s2, s3 float32
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			orow[j] = s0
			orow[j+1] = s1
			orow[j+2] = s2
			orow[j+3] = s3
		}
		for ; j < n; j++ {
			orow[j] = frozenDot(arow, b[j*k:(j+1)*k:(j+1)*k])
		}
	}
}

func frozenDot(x, y []float32) float32 {
	k := min(len(x), len(y))
	var s0, s1, s2, s3 float32
	p := 0
	for ; p+4 <= k; p += 4 {
		xs := x[p : p+4 : p+4]
		ys := y[p : p+4 : p+4]
		s0 += xs[0] * ys[0]
		s1 += xs[1] * ys[1]
		s2 += xs[2] * ys[2]
		s3 += xs[3] * ys[3]
	}
	for ; p < k; p++ {
		s0 += x[p] * y[p]
	}
	return (s0 + s1) + (s2 + s3)
}
