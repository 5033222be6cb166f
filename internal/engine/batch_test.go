package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/core"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/schema"
	"nodb/internal/value"
)

// batchRawTable builds a small raw table for batch-protocol tests.
func batchRawTable(t *testing.T, rows, parallelism int) *core.Table {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,val-%d,%d\n", i, i, i%5)
	}
	os.WriteFile(path, []byte(sb.String()), 0o644)
	sch := schema.MustNew([]schema.Column{
		{Name: "a", Kind: value.KindInt},
		{Name: "b", Kind: value.KindText},
		{Name: "c", Kind: value.KindInt},
	})
	opts := core.InSituOptions()
	opts.ChunkRows = 64
	opts.Parallelism = parallelism
	tbl, err := core.NewTable(path, sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestRawScanBatched(t *testing.T) {
	for _, par := range []int{1, 4} {
		tbl := batchRawTable(t, 300, par)
		var b metrics.Breakdown
		op, err := NewRawScan(tbl, core.ScanSpec{Needed: []int{0, 1}, B: &b})
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, op)
		if len(got) != 300 || got[42][1].S != "val-42" {
			t.Fatalf("par=%d rows=%d", par, len(got))
		}
	}
}

// TestFilterProjectBatched checks that Filter and Project over a raw scan
// produce exactly what the row evaluator (kernel-less nodes) produces.
func TestFilterProjectBatched(t *testing.T) {
	build := func(par int, vec bool) Operator {
		tbl := batchRawTable(t, 300, par)
		var b metrics.Breakdown
		scan, err := NewRawScan(tbl, core.ScanSpec{Needed: []int{0, 2}, B: &b})
		if err != nil {
			t.Fatal(err)
		}
		pred := compileOver(t, "b < 3", 2) // second output column (c) < 3
		f := NewFilter(scan, rowOnlyIf(vec, pred), &b)
		env := expr.NewEnv()
		env.Add("", "a", value.KindInt)
		env.Add("", "b", value.KindInt)
		return NewProject(f, []expr.Node{rowOnlyIf(vec, expr.Slot(env, 1)), rowOnlyIf(vec, expr.Slot(env, 0))}, &b)
	}

	want := drain(t, build(1, false))
	for _, par := range []int{1, 4} {
		got := drain(t, build(par, true))
		if len(got) != len(want) {
			t.Fatalf("par=%d rows=%d, want %d", par, len(got), len(want))
		}
		for r := range got {
			for i := range got[r] {
				if !value.Equal(got[r][i], want[r][i]) {
					t.Fatalf("par=%d row %d col %d: got %v want %v", par, r, i, got[r][i], want[r][i])
				}
			}
		}
	}
}

// TestBatchedFallback: a Filter over a ValuesOp — an input that once had
// no batch path — narrows the ValuesOp's batches, with the vector kernel
// and with the row evaluator alike.
func TestBatchedFallback(t *testing.T) {
	for _, vec := range []bool{true, false} {
		in := rows(intRow(1, 10), intRow(2, 20), intRow(3, 30))
		f := NewFilter(in, rowOnlyIf(vec, compileOver(t, "a >= 2", 2)), &metrics.Breakdown{})
		if f.Vectorized() != vec {
			t.Fatalf("Vectorized()=%v, want %v", f.Vectorized(), vec)
		}
		got := drain(t, f)
		if len(got) != 2 || got[0][1].I != 20 || got[1][1].I != 30 {
			t.Fatalf("vec=%v rows=%v", vec, got)
		}
	}
}

// TestHashAggOverBatches compares aggregation over the batched input path
// with the row path.
func TestHashAggOverBatches(t *testing.T) {
	run := func(par int) [][]value.Value {
		tbl := batchRawTable(t, 500, par)
		var b metrics.Breakdown
		scan, err := NewRawScan(tbl, core.ScanSpec{Needed: []int{2, 0}, B: &b})
		if err != nil {
			t.Fatal(err)
		}
		env := expr.NewEnv()
		env.Add("", "c", value.KindInt)
		env.Add("", "a", value.KindInt)
		keys := []expr.Node{expr.Slot(env, 0)}
		aggs := []AggSpec{
			{Name: "COUNT", Star: true},
			{Name: "SUM", Arg: expr.Slot(env, 1)},
		}
		return drain(t, NewHashAgg(scan, keys, aggs, &b))
	}
	want := run(1)
	got := run(4)
	if len(want) != 5 || len(got) != len(want) {
		t.Fatalf("groups: got %d want %d", len(got), len(want))
	}
	for r := range got {
		for i := range got[r] {
			if !value.Equal(got[r][i], want[r][i]) {
				t.Fatalf("group %d col %d: got %v want %v", r, i, got[r][i], want[r][i])
			}
		}
	}
}

// TestCountStarBatched drains a zero-column scan through HashAgg COUNT(*).
func TestCountStarBatched(t *testing.T) {
	tbl := batchRawTable(t, 321, 4)
	for pass := 0; pass < 2; pass++ {
		var b metrics.Breakdown
		scan, err := NewRawScan(tbl, core.ScanSpec{B: &b})
		if err != nil {
			t.Fatal(err)
		}
		agg := NewHashAgg(scan, nil, []AggSpec{{Name: "COUNT", Star: true}}, &b)
		got := drain(t, agg)
		if len(got) != 1 || got[0][0].I != 321 {
			t.Fatalf("pass %d: count=%v", pass, got)
		}
	}
}
