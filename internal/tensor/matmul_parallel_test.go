package tensor

import (
	"math/rand"
	"runtime"
	"testing"

	"tensorbase/internal/parallel"
)

func TestMatMulAddIntoAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 7, 11)
	b := randTensor(rng, 11, 5)
	want := MatMul(a, b)

	out := New(7, 5)
	MatMulAddInto(out, a, b)
	if !out.Equal(want) {
		t.Fatal("one accumulation into zeros must equal MatMul")
	}
	MatMulAddInto(out, a, b)
	for i, v := range out.Data() {
		w := 2 * want.Data()[i]
		if diff := v - w; diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("elem %d: %v, want %v (accumulation lost)", i, v, w)
		}
	}
}

func TestMatMulAddIntoShapePanics(t *testing.T) {
	for _, c := range []struct {
		name      string
		out, a, b *Tensor
	}{
		{"inner mismatch", New(2, 2), New(2, 3), New(4, 2)},
		{"out mismatch", New(3, 3), New(2, 3), New(3, 2)},
		{"rank", New(2, 2), New(2, 2, 1), New(2, 2)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: must panic", c.name)
				}
			}()
			MatMulAddInto(c.out, c.a, c.b)
		}()
	}
}

// The fused kernel is the per-k-step inner call of the blocked multiply;
// it must not allocate at all.
func TestMatMulAddIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randTensor(rng, 64, 64)
	b := randTensor(rng, 64, 64)
	out := New(64, 64)
	if allocs := testing.AllocsPerRun(20, func() {
		MatMulAddInto(out, a, b)
	}); allocs != 0 {
		t.Fatalf("MatMulAddInto allocates %.1f objects per call, want 0", allocs)
	}
}

// withProcs widens GOMAXPROCS so the fan-out path is reachable on small CI
// machines, restoring it afterwards.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// withBudget installs a private compute budget as the process default for
// the test's duration.
func withBudget(t *testing.T, n int) *parallel.Budget {
	t.Helper()
	b := parallel.NewBudget(n)
	prev := parallel.SetDefault(b)
	t.Cleanup(func() { parallel.SetDefault(prev) })
	return b
}

// Kernels must draw their extra goroutines from the shared budget: with the
// budget drained the kernel runs serially, and it never holds tokens after
// returning. This is the oversubscription regression test of Sec. 3 — the
// engine's block workers and the kernels cannot multiply their thread
// counts because both debit one account.
func TestKernelFanOutRespectsSharedBudget(t *testing.T) {
	withProcs(t, 4)
	rng := rand.New(rand.NewSource(3))
	a := randTensor(rng, 128, 128)
	b := randTensor(rng, 128, 128) // 128³ = 2M mul-adds, over the threshold
	want := MatMul(a, b)           // computed under the real default budget

	drained := withBudget(t, 2)
	drained.Acquire(2)
	drained.ResetHighWater()
	got := MatMul(a, b)
	drained.Release(2)
	if hw := drained.HighWater(); hw > 2 {
		t.Fatalf("kernel pushed high water to %d with budget drained", hw)
	}
	if !got.Equal(want) {
		t.Fatal("serial-degraded kernel changed the result")
	}

	open := withBudget(t, 4)
	got = MatMul(a, b)
	if hw := open.HighWater(); hw > 4 {
		t.Fatalf("kernel high water %d exceeds budget 4", hw)
	}
	if open.InUse() != 0 {
		t.Fatalf("kernel leaked %d tokens", open.InUse())
	}
	if !got.Equal(want) {
		t.Fatal("parallel kernel result is not bit-identical to serial")
	}
}

func TestSetMaxWorkersCapsKernel(t *testing.T) {
	withProcs(t, 4)
	b := withBudget(t, 4)
	setMaxWorkers(1)
	defer setMaxWorkers(0)
	rng := rand.New(rand.NewSource(4))
	x := randTensor(rng, 128, 128)
	y := randTensor(rng, 128, 128)
	_ = MatMul(x, y)
	if hw := b.HighWater(); hw != 0 {
		t.Fatalf("capped kernel still took %d tokens", hw)
	}
}

func TestReuse2D(t *testing.T) {
	var v Tensor
	buf := []float32{1, 2, 3, 4, 5, 6}
	v.Reuse2D(buf, 2, 3)
	if v.Dim(0) != 2 || v.Dim(1) != 3 || &v.Data()[0] != &buf[0] {
		t.Fatal("Reuse2D must alias the caller's buffer")
	}
	v.Reuse2D(buf[:4], 2, 2) // shrinking reuses the shape slice
	if v.Dim(0) != 2 || v.Dim(1) != 2 {
		t.Fatalf("reshaped to %v", v.Shape())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	v.Reuse2D(buf, 2, 2)
}
