package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tensorbase/internal/table"
)

// fmtGroupKey is the group-key encoding the aggregates used before keys
// were built with strconv: fmt's %v of each value, then '|'. Output order
// of every GROUP BY depends on these bytes, so INT, FLOAT and TEXT keys
// must stay identical to it.
func fmtGroupKey(t table.Tuple, idx []int) string {
	var sb strings.Builder
	for _, i := range idx {
		fmt.Fprintf(&sb, "%v|", t[i])
	}
	return sb.String()
}

func TestGroupKeyMatchesFmtForScalars(t *testing.T) {
	vals := []table.Value{
		table.IntVal(0), table.IntVal(-1), table.IntVal(42),
		table.IntVal(math.MaxInt64), table.IntVal(math.MinInt64),
		table.FloatVal(0), table.FloatVal(math.Copysign(0, -1)),
		table.FloatVal(math.NaN()), table.FloatVal(math.Inf(1)), table.FloatVal(math.Inf(-1)),
		table.FloatVal(0.1), table.FloatVal(-2.5), table.FloatVal(1e21), table.FloatVal(1e-7),
		table.FloatVal(123456789), table.FloatVal(math.MaxFloat64), table.FloatVal(5e-324),
		table.TextVal(""), table.TextVal("a|b"), table.TextVal("héllo"), table.TextVal("<nil>"),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		vals = append(vals,
			table.IntVal(rng.Int63()-rng.Int63()),
			table.FloatVal(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20))),
			table.FloatVal(math.Float64frombits(rng.Uint64())))
	}
	for _, v := range vals {
		tup := table.Tuple{v}
		if got, want := string(appendGroupKey(nil, tup, []int{0})), fmtGroupKey(tup, []int{0}); got != want {
			t.Fatalf("key of %v (%v) = %q, want %q", v, v.Type, got, want)
		}
	}
	// Multi-column keys concatenate, and reusing the buffer leaves no
	// residue from a longer previous key.
	tup := table.Tuple{table.TextVal("k"), table.IntVal(7), table.FloatVal(math.NaN())}
	buf := appendGroupKey(nil, table.Tuple{table.TextVal(strings.Repeat("x", 64))}, []int{0})
	if got, want := string(appendGroupKey(buf[:0], tup, []int{2, 0, 1})), fmtGroupKey(tup, []int{2, 0, 1}); got != want {
		t.Fatalf("multi-column key = %q, want %q", got, want)
	}
}

func TestGroupKeyEncodesEveryVectorElement(t *testing.T) {
	short := table.Tuple{table.VecVal([]float32{1, -2.5, float32(math.Inf(1)), 1e-8})}
	if got, want := string(appendGroupKey(nil, short, []int{0})), fmtGroupKey(short, []int{0}); got != want {
		t.Fatalf("short vector key = %q, want %q", got, want)
	}
	a := make([]float32, 9)
	b := make([]float32, 9)
	b[8] = 1
	ka := string(appendGroupKey(nil, table.Tuple{table.VecVal(a)}, []int{0}))
	kb := string(appendGroupKey(nil, table.Tuple{table.VecVal(b)}, []int{0}))
	if ka == kb {
		t.Fatalf("distinct 9-wide vectors share key %q", ka)
	}
}
