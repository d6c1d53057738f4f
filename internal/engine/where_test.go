package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tensorbase/internal/nn"
	"tensorbase/internal/sql"
	"tensorbase/internal/table"
)

// whereCase is one `col op literal` family: the literal as SQL text and as
// the value the reference filter compares against.
type whereCase struct {
	name string
	col  string
	sql  string
	lit  table.Value
}

// refCompare is the reference three-way comparison of a column value with a
// WHERE literal, written against decoded values: numbers compare as
// numbers (an INT column against a FLOAT literal as float64), text
// byte-wise, and a NaN on either side compares equal to everything — the
// engine's long-standing semantics, which pushing WHERE into the scan must
// not change.
func refCompare(v, lit table.Value) int {
	switch {
	case v.Type == table.Text:
		return strings.Compare(v.Str, lit.Str)
	case v.Type == table.Int64 && lit.Type == table.Int64:
		switch {
		case v.Int < lit.Int:
			return -1
		case v.Int > lit.Int:
			return 1
		}
		return 0
	}
	a, b := v.Float, lit.Float
	if v.Type == table.Int64 {
		a = float64(v.Int)
	}
	if lit.Type == table.Int64 {
		b = float64(lit.Int)
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func refPass(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	panic("unknown operator " + op)
}

// whereTable creates t(id INT, x DOUBLE, tag TEXT, features VECTOR) with n
// rows spanning several heap pages. x cycles through NaN, ±Inf, ±0 and
// ordinary values; tag through a small alphabet including the empty string.
func whereTable(t *testing.T, db *DB, n int) {
	t.Helper()
	schema := table.MustSchema(
		table.Column{Name: "id", Type: table.Int64},
		table.Column{Name: "x", Type: table.Float64},
		table.Column{Name: "tag", Type: table.Text},
		table.Column{Name: "features", Type: table.FloatVec},
	)
	if _, err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -2.25, 1e300, -1e-300}
	tags := []string{"", "a", "b", "ba", "m", "z", "Zed"}
	rng := rand.New(rand.NewSource(9))
	rows := make([]table.Tuple, n)
	for i := range rows {
		x := rng.NormFloat64() * 4
		if i%3 == 0 {
			x = specials[(i/3)%len(specials)]
		}
		feats := make([]float32, 28)
		for j := range feats {
			feats[j] = float32(rng.NormFloat64())
		}
		rows[i] = table.Tuple{table.IntVal(int64(i)), table.FloatVal(x), table.TextVal(tags[i%len(tags)]), table.VecVal(feats)}
	}
	if _, err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadModel(nn.FraudFC(rand.New(rand.NewSource(10)), 32), 0); err != nil {
		t.Fatal(err)
	}
}

// TestWherePushdownMatchesReferenceFilter is the differential test for
// WHERE evaluated inside the scan: for every operator and literal family,
// the rows each source yields must equal a reference filter over the
// unfiltered rows — through the heap scan's row path (SELECT *), its
// columnar path (PREDICT, whose predictions must also be bit-identical to
// the unfiltered run's), a CTE's memory scan, and the shard coordinator's
// RunMemSelect.
func TestWherePushdownMatchesReferenceFilter(t *testing.T) {
	db := openDB(t, Options{InferBatch: 16})
	whereTable(t, db, 600)
	all := mustExec(t, db, "SELECT * FROM t")
	if len(all.Rows) != 600 {
		t.Fatalf("unfiltered scan returned %d rows", len(all.Rows))
	}
	preds := make(map[int64][]float32)
	for _, r := range mustExec(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) FROM t").Rows {
		preds[r[0].Int] = r[1].Vec
	}

	cases := []whereCase{
		{"int-int", "id", "297", table.IntVal(297)},
		{"int-negative", "id", "-1", table.IntVal(-1)},
		{"int-float", "id", "299.5", table.FloatVal(299.5)},
		{"int-float-integral", "id", "300.0", table.FloatVal(300)},
		{"float-zero", "x", "0", table.IntVal(0)},
		{"float-negzero", "x", "-0.0", table.FloatVal(math.Copysign(0, -1))},
		{"float", "x", "1.5", table.FloatVal(1.5)},
		{"float-tiny", "x", "-1e-300", table.FloatVal(-1e-300)},
		{"text", "tag", "'b'", table.TextVal("b")},
		{"text-empty", "tag", "''", table.TextVal("")},
	}
	colIdx := map[string]int{"id": 0, "x": 1, "tag": 2}
	for _, c := range cases {
		for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
			cond := fmt.Sprintf("%s %s %s", c.col, op, c.sql)
			var want []int64
			for _, r := range all.Rows {
				if refPass(op, refCompare(r[colIdx[c.col]], c.lit)) {
					want = append(want, r[0].Int)
				}
			}

			check := func(source string, rows []table.Tuple) {
				t.Helper()
				if len(rows) != len(want) {
					t.Fatalf("%s / %s: %d rows, reference %d", c.name, source+" WHERE "+cond, len(rows), len(want))
				}
				for i, r := range rows {
					if r[0].Int != want[i] {
						t.Fatalf("%s / %s: row %d id %d, reference %d", c.name, source+" WHERE "+cond, i, r[0].Int, want[i])
					}
				}
			}

			check("SELECT * FROM t", mustExec(t, db, "SELECT * FROM t WHERE "+cond).Rows)
			check("WITH c AS (SELECT * FROM t) SELECT * FROM c",
				mustExec(t, db, "WITH c AS (SELECT * FROM t) SELECT * FROM c WHERE "+cond).Rows)

			st, err := sql.Parse("SELECT * FROM t WHERE " + cond)
			if err != nil {
				t.Fatal(err)
			}
			mem, err := RunMemSelect(st.(*sql.Select), all.Schema, all.Rows)
			if err != nil {
				t.Fatal(err)
			}
			check("RunMemSelect", mem.Rows)

			before := db.Stats().ColBatches
			res := mustExec(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) FROM t WHERE "+cond)
			check("PREDICT", res.Rows)
			if len(want) > 0 && db.Stats().ColBatches == before {
				t.Fatalf("%s / PREDICT WHERE %s did not take the columnar path", c.name, cond)
			}
			for _, r := range res.Rows {
				ref := preds[r[0].Int]
				for j := range ref {
					if math.Float32bits(r[1].Vec[j]) != math.Float32bits(ref[j]) {
						t.Fatalf("%s / PREDICT WHERE %s: id %d prediction differs from the unfiltered run", c.name, cond, r[0].Int)
					}
				}
			}
		}
	}
}

// TestPointPredictAllocsIndependentOfTableSize: a point PREDICT decodes
// only the row it returns, so its allocation count does not grow with the
// rows its scan rejects. Decoding every row before filtering allocated
// about three objects per row.
func TestPointPredictAllocsIndependentOfTableSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	allocs := func(n int) float64 {
		db := openDB(t, Options{})
		whereTable(t, db, n)
		q := fmt.Sprintf("SELECT id, PREDICT(Fraud-FC-32, features) FROM t WHERE id = %d", n/2)
		mustExec(t, db, q) // warm the pool
		return testing.AllocsPerRun(20, func() {
			res, err := db.Exec(q)
			if err != nil || len(res.Rows) != 1 {
				t.Fatalf("point PREDICT: %v rows, err %v", res, err)
			}
		})
	}
	small, large := allocs(1024), allocs(8192)
	if large-small > 8 {
		t.Fatalf("point PREDICT allocates %.0f objects at 1024 rows and %.0f at 8192", small, large)
	}
}

// TestGroupByDistinguishesLongVectors: vectors wider than eight elements
// group by their full contents, not by their length.
func TestGroupByDistinguishesLongVectors(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE v (f VECTOR)")
	mustExec(t, db, "INSERT INTO v VALUES ([1, 2, 3, 4, 5, 6, 7, 8, 9]), ([1, 2, 3, 4, 5, 6, 7, 8, 10]), ([1, 2, 3, 4, 5, 6, 7, 8, 9])")
	res := mustExec(t, db, "SELECT f, COUNT(*) FROM v GROUP BY f")
	if len(res.Rows) != 2 {
		t.Fatalf("GROUP BY over two distinct 9-wide vectors returned %d groups: %v", len(res.Rows), res.Rows)
	}
	for _, r := range res.Rows {
		want := int64(1)
		if r[0].Vec[8] == 9 {
			want = 2
		}
		if r[1].Int != want {
			t.Fatalf("group %v has count %d, want %d", r[0].Vec, r[1].Int, want)
		}
	}
}
