package engine

import (
	"fmt"

	"tensorbase/internal/exec"
	"tensorbase/internal/sql"
	"tensorbase/internal/table"
)

// RunMemSelect evaluates a SELECT over an in-memory row set — the shard
// coordinator's evaluator for a CTE outer query whose source rows were
// already gathered from the shards. There is no FROM resolution, snapshot,
// or PREDICT (inference needs a live engine); WHERE, aggregation,
// projection, ORDER BY, and LIMIT compile through the same paths as
// runSelect, so coordinator-side evaluation matches single-node semantics.
func RunMemSelect(st *sql.Select, schema *table.Schema, rows []table.Tuple) (*Result, error) {
	if st.HasPredict() {
		return nil, fmt.Errorf("engine: PREDICT is not supported over gathered rows")
	}
	where, err := compileWhere(schema, st.Where)
	if err != nil {
		return nil, err
	}
	ms := exec.NewMemScan(schema, rows)
	ms.SetWhere(where)
	var op exec.Operator = ms

	if st.GroupBy != "" || st.HasAggregate() {
		var groupBy []string
		if st.GroupBy != "" {
			groupBy = []string{st.GroupBy}
		}
		var specs []exec.AggSpec
		for _, item := range st.Items {
			if item.Agg == nil {
				if item.Star {
					return nil, fmt.Errorf("engine: '*' cannot be combined with aggregates")
				}
				if item.Col != st.GroupBy {
					return nil, fmt.Errorf("engine: column %q must appear in GROUP BY", item.Col)
				}
				continue
			}
			kind, ok := aggKinds[item.Agg.Fn]
			if !ok {
				return nil, fmt.Errorf("engine: unknown aggregate %q", item.Agg.Fn)
			}
			specs = append(specs, exec.AggSpec{Kind: kind, Col: item.Agg.Col, As: item.Agg.OutName()})
		}
		agg, err := exec.NewHashAggregate(op, groupBy, specs)
		if err != nil {
			return nil, err
		}
		op = agg
	}

	var cols []string
	star := false
	for _, item := range st.Items {
		switch {
		case item.Star:
			star = true
		case item.Agg != nil:
			cols = append(cols, item.Agg.OutName())
		default:
			cols = append(cols, item.Col)
		}
	}
	if star {
		if len(st.Items) != 1 {
			return nil, fmt.Errorf("engine: '*' cannot be combined with other select items")
		}
	} else {
		proj, err := exec.NewProject(op, cols...)
		if err != nil {
			return nil, err
		}
		op = proj
	}

	if st.OrderBy != "" {
		srt, err := exec.NewSort(op, st.OrderBy, st.OrderDesc)
		if err != nil {
			return nil, err
		}
		op = srt
	}
	if st.Limit >= 0 {
		op = exec.NewLimit(op, st.Limit)
	}

	out, err := exec.Collect(op)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: op.Schema(), Rows: out}, nil
}
