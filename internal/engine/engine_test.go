package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/core"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/storage"
	"nodb/internal/value"
)

func rows(vals ...[]value.Value) *ValuesOp { return &ValuesOp{Rows: vals} }

func drain(t *testing.T, op Operator) [][]value.Value {
	t.Helper()
	var out [][]value.Value
	err := ForEachBatchRow(op, func(row []value.Value) error {
		out = append(out, copyRow(row))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// compileOver compiles a WHERE-style condition against a simple env of int
// columns named a, b, c...
func compileOver(t *testing.T, cond string, ncols int) expr.Node {
	t.Helper()
	env := expr.NewEnv()
	for i := 0; i < ncols; i++ {
		env.Add("", string(rune('a'+i)), value.KindInt)
	}
	sel, err := sql.Parse("SELECT a FROM t WHERE " + cond)
	if err != nil {
		t.Fatal(err)
	}
	n, err := expr.Compile(sel.Where, env)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func intRow(vals ...int64) []value.Value {
	out := make([]value.Value, len(vals))
	for i, v := range vals {
		out[i] = value.Int(v)
	}
	return out
}

func TestFilter(t *testing.T) {
	var b metrics.Breakdown
	op := NewFilter(rows(intRow(1), intRow(5), intRow(3), intRow(7)), compileOver(t, "a > 3", 1), &b)
	got := drain(t, op)
	if len(got) != 2 || got[0][0].I != 5 || got[1][0].I != 7 {
		t.Fatalf("got=%v", got)
	}
	_ = b // operator time is charged as the query-level residual, not here
}

func TestProject(t *testing.T) {
	env := expr.NewEnv()
	env.Add("", "a", value.KindInt)
	env.Add("", "b", value.KindInt)
	sel, _ := sql.Parse("SELECT a + b, a * 2 FROM t")
	var exprs []expr.Node
	for _, item := range sel.Items {
		n, err := expr.Compile(item.Expr, env)
		if err != nil {
			t.Fatal(err)
		}
		exprs = append(exprs, n)
	}
	var b metrics.Breakdown
	got := drain(t, NewProject(rows(intRow(1, 2), intRow(10, 20)), exprs, &b))
	if len(got) != 2 || got[0][0].I != 3 || got[0][1].I != 2 || got[1][0].I != 30 {
		t.Fatalf("got=%v", got)
	}
}

func TestLimitOffset(t *testing.T) {
	mk := func() Operator { return rows(intRow(1), intRow(2), intRow(3), intRow(4), intRow(5)) }
	if got := drain(t, NewLimit(mk(), 0, 2)); len(got) != 2 || got[1][0].I != 2 {
		t.Fatalf("limit: %v", got)
	}
	if got := drain(t, NewLimit(mk(), 3, -1)); len(got) != 2 || got[0][0].I != 4 {
		t.Fatalf("offset: %v", got)
	}
	if got := drain(t, NewLimit(mk(), 1, 2)); len(got) != 2 || got[0][0].I != 2 || got[1][0].I != 3 {
		t.Fatalf("offset+limit: %v", got)
	}
	if got := drain(t, NewLimit(mk(), 0, 0)); len(got) != 0 {
		t.Fatalf("limit 0: %v", got)
	}
}

func TestDistinct(t *testing.T) {
	var b metrics.Breakdown
	in := rows(intRow(1, 1), intRow(1, 1), intRow(1, 2), intRow(1, 1))
	got := drain(t, NewDistinct(in, &b))
	if len(got) != 2 {
		t.Fatalf("distinct: %v", got)
	}
}

func TestDistinctKindSafety(t *testing.T) {
	// Text "1" and Int 1 must not collapse.
	in := rows(
		[]value.Value{value.Int(1)},
		[]value.Value{value.Text("1")},
		[]value.Value{value.Null()},
	)
	got := drain(t, NewDistinct(in, &metrics.Breakdown{}))
	if len(got) != 3 {
		t.Fatalf("distinct collapsed distinct kinds: %v", got)
	}
}

func TestHashAggGlobal(t *testing.T) {
	env := expr.NewEnv()
	env.Add("", "a", value.KindInt)
	arg, _ := expr.Compile(sql.ColumnRef{Name: "a"}, env)
	aggs := []AggSpec{
		{Name: "COUNT", Star: true},
		{Name: "SUM", Arg: arg},
		{Name: "AVG", Arg: arg},
		{Name: "MIN", Arg: arg},
		{Name: "MAX", Arg: arg},
	}
	var b metrics.Breakdown
	got := drain(t, NewHashAgg(rows(intRow(1), intRow(2), intRow(3)), nil, aggs, &b))
	if len(got) != 1 {
		t.Fatalf("groups=%d", len(got))
	}
	r := got[0]
	if r[0].I != 3 || r[1].I != 6 || r[2].F != 2.0 || r[3].I != 1 || r[4].I != 3 {
		t.Fatalf("agg row=%v", r)
	}
}

func TestHashAggEmptyInputGlobal(t *testing.T) {
	env := expr.NewEnv()
	env.Add("", "a", value.KindInt)
	arg, _ := expr.Compile(sql.ColumnRef{Name: "a"}, env)
	got := drain(t, NewHashAgg(rows(), nil,
		[]AggSpec{{Name: "COUNT", Star: true}, {Name: "SUM", Arg: arg}}, &metrics.Breakdown{}))
	if len(got) != 1 || got[0][0].I != 0 || !got[0][1].IsNull() {
		t.Fatalf("empty agg=%v", got)
	}
}

func TestHashAggGrouped(t *testing.T) {
	env := expr.NewEnv()
	env.Add("", "a", value.KindInt) // group key
	env.Add("", "b", value.KindInt) // value
	key, _ := expr.Compile(sql.ColumnRef{Name: "a"}, env)
	arg, _ := expr.Compile(sql.ColumnRef{Name: "b"}, env)
	in := rows(intRow(1, 10), intRow(2, 20), intRow(1, 30), intRow(2, 5), intRow(3, 1))
	got := drain(t, NewHashAgg(in, []expr.Node{key},
		[]AggSpec{{Name: "SUM", Arg: arg}, {Name: "COUNT", Star: true}}, &metrics.Breakdown{}))
	if len(got) != 3 {
		t.Fatalf("groups=%v", got)
	}
	// First-seen order: group 1, 2, 3.
	if got[0][0].I != 1 || got[0][1].I != 40 || got[0][2].I != 2 {
		t.Fatalf("group1=%v", got[0])
	}
	if got[1][0].I != 2 || got[1][1].I != 25 {
		t.Fatalf("group2=%v", got[1])
	}
	if got[2][0].I != 3 || got[2][1].I != 1 {
		t.Fatalf("group3=%v", got[2])
	}
}

func TestHashAggEmptyInputGrouped(t *testing.T) {
	env := expr.NewEnv()
	env.Add("", "a", value.KindInt)
	key, _ := expr.Compile(sql.ColumnRef{Name: "a"}, env)
	got := drain(t, NewHashAgg(rows(), []expr.Node{key},
		[]AggSpec{{Name: "COUNT", Star: true}}, &metrics.Breakdown{}))
	if len(got) != 0 {
		t.Fatalf("grouped agg over empty input=%v", got)
	}
}

func TestSort(t *testing.T) {
	env := expr.NewEnv()
	env.Add("", "a", value.KindInt)
	env.Add("", "b", value.KindInt)
	colA, _ := expr.Compile(sql.ColumnRef{Name: "a"}, env)
	colB, _ := expr.Compile(sql.ColumnRef{Name: "b"}, env)
	in := rows(intRow(2, 1), intRow(1, 2), intRow(2, 0), intRow(1, 1))
	got := drain(t, NewSort(in, []SortKey{{Expr: colA}, {Expr: colB, Desc: true}}, &metrics.Breakdown{}))
	want := [][2]int64{{1, 2}, {1, 1}, {2, 1}, {2, 0}}
	for i, w := range want {
		if got[i][0].I != w[0] || got[i][1].I != w[1] {
			t.Fatalf("sorted=%v", got)
		}
	}
}

func TestSortStable(t *testing.T) {
	env := expr.NewEnv()
	env.Add("", "a", value.KindInt)
	env.Add("", "b", value.KindInt)
	colA, _ := expr.Compile(sql.ColumnRef{Name: "a"}, env)
	in := rows(intRow(1, 0), intRow(1, 1), intRow(1, 2))
	got := drain(t, NewSort(in, []SortKey{{Expr: colA}}, &metrics.Breakdown{}))
	for i := range got {
		if got[i][1].I != int64(i) {
			t.Fatal("sort not stable")
		}
	}
}

// TestSortAllocsFlat: Sort holds its input in flat arenas and sorts a
// permutation of row ids, so sorting 20k rows allocates about what sorting
// 10k rows does.
func TestSortAllocsFlat(t *testing.T) {
	env := expr.NewEnv()
	env.Add("", "a", value.KindInt)
	env.Add("", "b", value.KindInt)
	keys := []SortKey{{Expr: expr.Slot(env, 0)}, {Expr: expr.Slot(env, 1), Desc: true}}
	allocs := func(n int) float64 {
		var in [][]value.Value
		for i := 0; i < n; i++ {
			in = append(in, intRow(int64(i%97), int64(i)))
		}
		return testing.AllocsPerRun(3, func() {
			op := NewSort(rows(in...), keys, &metrics.Breakdown{})
			if err := ForEachBatchRow(op, func([]value.Value) error { return nil }); err != nil {
				t.Fatal(err)
			}
			op.Close()
		})
	}
	small, large := allocs(10_000), allocs(20_000)
	if large > small+8 {
		t.Errorf("%.0f allocations for 10k input rows, %.0f for 20k", small, large)
	}
}

func joinEnv() (probe, build []expr.Node) {
	envL := expr.NewEnv()
	envL.Add("", "a", value.KindInt)
	envL.Add("", "b", value.KindInt)
	keyL, _ := expr.Compile(sql.ColumnRef{Name: "a"}, envL)
	envR := expr.NewEnv()
	envR.Add("", "c", value.KindInt)
	envR.Add("", "d", value.KindInt)
	keyR, _ := expr.Compile(sql.ColumnRef{Name: "c"}, envR)
	return []expr.Node{keyL}, []expr.Node{keyR}
}

func TestHashJoinInner(t *testing.T) {
	probe, build := joinEnv()
	left := rows(intRow(1, 100), intRow(2, 200), intRow(3, 300))
	right := rows(intRow(2, 20), intRow(3, 30), intRow(3, 31), intRow(4, 40))
	got := drain(t, NewHashJoin(left, right, probe, build, nil, false, 2, &metrics.Breakdown{}))
	if len(got) != 3 {
		t.Fatalf("join rows=%v", got)
	}
	if got[0][0].I != 2 || got[0][3].I != 20 {
		t.Fatalf("row0=%v", got[0])
	}
	if got[1][0].I != 3 || got[2][0].I != 3 {
		t.Fatalf("dup join rows=%v", got)
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	probe, build := joinEnv()
	left := rows(intRow(1, 100), intRow(2, 200))
	right := rows(intRow(2, 20))
	got := drain(t, NewHashJoin(left, right, probe, build, nil, true, 2, &metrics.Breakdown{}))
	if len(got) != 2 {
		t.Fatalf("rows=%v", got)
	}
	if !got[0][2].IsNull() || !got[0][3].IsNull() {
		t.Fatalf("unmatched row not padded: %v", got[0])
	}
	if got[1][2].I != 2 {
		t.Fatalf("matched row=%v", got[1])
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	probe, build := joinEnv()
	left := rows([]value.Value{value.Null(), value.Int(1)})
	right := rows([]value.Value{value.Null(), value.Int(2)})
	got := drain(t, NewHashJoin(left, right, probe, build, nil, false, 2, &metrics.Breakdown{}))
	if len(got) != 0 {
		t.Fatalf("null keys joined: %v", got)
	}
}

func TestHashJoinResidual(t *testing.T) {
	probe, build := joinEnv()
	// Residual over the concatenated row: d > b.
	env := expr.NewEnv()
	env.Add("", "a", value.KindInt)
	env.Add("", "b", value.KindInt)
	env.Add("", "c", value.KindInt)
	env.Add("", "d", value.KindInt)
	sel, _ := sql.Parse("SELECT a FROM t WHERE d > b")
	res, err := expr.Compile(sel.Where, env)
	if err != nil {
		t.Fatal(err)
	}
	left := rows(intRow(1, 10), intRow(1, 50))
	right := rows(intRow(1, 20))
	got := drain(t, NewHashJoin(left, right, probe, build, res, false, 2, &metrics.Breakdown{}))
	if len(got) != 1 || got[0][1].I != 10 {
		t.Fatalf("residual join=%v", got)
	}
}

func TestNLJoinCross(t *testing.T) {
	left := rows(intRow(1), intRow(2))
	right := rows(intRow(10), intRow(20), intRow(30))
	got := drain(t, NewNLJoin(left, right, nil, false, 1, &metrics.Breakdown{}))
	if len(got) != 6 {
		t.Fatalf("cross join rows=%d", len(got))
	}
	if got[0][0].I != 1 || got[0][1].I != 10 || got[5][0].I != 2 || got[5][1].I != 30 {
		t.Fatalf("cross rows=%v", got)
	}
}

func TestNLJoinNonEquiAndOuter(t *testing.T) {
	env := expr.NewEnv()
	env.Add("", "a", value.KindInt)
	env.Add("", "b", value.KindInt)
	sel, _ := sql.Parse("SELECT a FROM t WHERE b > a")
	on, err := expr.Compile(sel.Where, env)
	if err != nil {
		t.Fatal(err)
	}
	left := rows(intRow(5), intRow(25))
	right := rows(intRow(10), intRow(20))
	got := drain(t, NewNLJoin(left, right, on, true, 1, &metrics.Breakdown{}))
	// 5 matches 10 and 20; 25 matches nothing -> padded.
	if len(got) != 3 {
		t.Fatalf("rows=%v", got)
	}
	if !got[2][1].IsNull() {
		t.Fatalf("outer pad missing: %v", got)
	}
}

func TestRawScanOperator(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "%d,val-%d\n", i, i)
	}
	os.WriteFile(path, []byte(sb.String()), 0o644)
	sch := schema.MustNew([]schema.Column{{Name: "id", Kind: value.KindInt}, {Name: "v", Kind: value.KindText}})
	tbl, err := core.NewTable(path, sch, core.InSituOptions())
	if err != nil {
		t.Fatal(err)
	}
	var b metrics.Breakdown
	op, err := NewRawScan(tbl, core.ScanSpec{Needed: []int{0, 1}, B: &b})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, op)
	if len(got) != 100 || got[42][1].S != "val-42" {
		t.Fatalf("raw scan rows=%d", len(got))
	}
}

func loadHeap(t *testing.T, rows int, opts storage.LoadOptions) *storage.Table {
	t.Helper()
	dir := t.TempDir()
	csv := filepath.Join(dir, "t.csv")
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,val-%d,%d\n", i, i, i%5)
	}
	os.WriteFile(csv, []byte(sb.String()), 0o644)
	sch := schema.MustNew([]schema.Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "v", Kind: value.KindText},
		{Name: "g", Kind: value.KindInt},
	})
	var b metrics.Breakdown
	tbl, err := storage.LoadCSV(csv, filepath.Join(dir, "t.heap"), sch, opts, &b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.Close() })
	return tbl
}

func TestHeapScanOperator(t *testing.T) {
	tbl := loadHeap(t, 500, storage.LoadOptions{})
	var b metrics.Breakdown
	got := drain(t, NewHeapScan(tbl, []int{2, 0}, &b))
	if len(got) != 500 {
		t.Fatalf("rows=%d", len(got))
	}
	if got[7][0].I != 2 || got[7][1].I != 7 {
		t.Fatalf("row7=%v", got[7])
	}
	if b.RowsScanned != 500 || b.BytesRead == 0 {
		t.Errorf("counters=%+v", b)
	}
}

func TestIndexScanOperator(t *testing.T) {
	tbl := loadHeap(t, 500, storage.LoadOptions{IndexAttrs: []int{0}})
	ix, _ := tbl.Index(0)
	rids := ix.SearchRange(value.Int(10), value.Int(14), true, true)
	var b metrics.Breakdown
	got := drain(t, NewIndexScan(tbl, rids, []int{0, 1}, &b))
	if len(got) != 5 || got[0][0].I != 10 || got[4][1].S != "val-14" {
		t.Fatalf("index scan=%v", got)
	}
}

// TestLeafScansCancelPerBatch: a heap scan stops at the next page and an
// index scan within batchRows fetches once the context is done.
func TestLeafScansCancelPerBatch(t *testing.T) {
	tbl := loadHeap(t, 2000, storage.LoadOptions{IndexAttrs: []int{0}})
	ix, _ := tbl.Index(0)
	heap := NewHeapScan(tbl, []int{0}, &metrics.Breakdown{})
	index := NewIndexScan(tbl, ix.SearchRange(value.Int(0), value.Int(1999), true, true), []int{0}, &metrics.Breakdown{})
	for _, tc := range []struct {
		name string
		op   interface {
			Operator
			SetContext(context.Context)
		}
	}{{"heap", heap}, {"index", index}} {
		ctx, cancel := context.WithCancel(context.Background())
		tc.op.SetContext(ctx)
		b, ok, err := tc.op.NextBatch()
		if err != nil || !ok || len(b.Sel) == 0 || len(b.Sel) > batchRows {
			t.Fatalf("%s: first batch: ok=%v err=%v", tc.name, ok, err)
		}
		cancel()
		if _, _, err := tc.op.NextBatch(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: after cancel: want context.Canceled, got %v", tc.name, err)
		}
	}
}

func TestOperatorChain(t *testing.T) {
	// filter -> agg -> sort over a heap scan: an end-to-end operator stack.
	tbl := loadHeap(t, 1000, storage.LoadOptions{})
	var b metrics.Breakdown
	scan := NewHeapScan(tbl, []int{0, 2}, &b) // id, g
	env := expr.NewEnv()
	env.Add("", "id", value.KindInt)
	env.Add("", "g", value.KindInt)
	selw, _ := sql.Parse("SELECT id FROM t WHERE id < 100")
	pred, err := expr.Compile(selw.Where, env)
	if err != nil {
		t.Fatal(err)
	}
	gKey, _ := expr.Compile(sql.ColumnRef{Name: "g"}, env)
	idArg, _ := expr.Compile(sql.ColumnRef{Name: "id"}, env)
	agg := NewHashAgg(NewFilter(scan, pred, &b), []expr.Node{gKey},
		[]AggSpec{{Name: "COUNT", Star: true}, {Name: "SUM", Arg: idArg}}, &b)
	envAgg := expr.NewEnv()
	envAgg.Add("", "g", value.KindInt)
	envAgg.Add("", "cnt", value.KindInt)
	envAgg.Add("", "sum", value.KindInt)
	gOut, _ := expr.Compile(sql.ColumnRef{Name: "g"}, envAgg)
	sorted := NewSort(agg, []SortKey{{Expr: gOut}}, &b)
	got := drain(t, sorted)
	if len(got) != 5 {
		t.Fatalf("groups=%v", got)
	}
	for g := 0; g < 5; g++ {
		if got[g][0].I != int64(g) || got[g][1].I != 20 {
			t.Fatalf("group %d=%v", g, got[g])
		}
	}
}

// TestJoinProbeAllocsFlat: the joins walk probe batches in place and reuse
// their output buffers, so the allocations of a join do not grow with the
// probe side — 10k and 20k probe rows against the same build side
// allocate the same.
func TestJoinProbeAllocsFlat(t *testing.T) {
	var build [][]value.Value
	for i := int64(0); i < 64; i++ {
		build = append(build, intRow(i, i*10))
	}
	probeKeys, buildKeys := joinEnv()
	joins := map[string]func(left Operator) Operator{
		"hash": func(left Operator) Operator {
			return NewHashJoin(left, rows(build...), probeKeys, buildKeys, nil, true, 2, &metrics.Breakdown{})
		},
		"nested-loop": func(left Operator) Operator {
			on := compileOver(t, "a = c", 4)
			return NewNLJoin(left, rows(build[:4]...), on, true, 2, &metrics.Breakdown{})
		},
	}
	for _, name := range []string{"hash", "nested-loop"} {
		allocs := func(n int) float64 {
			var probe [][]value.Value
			for i := 0; i < n; i++ {
				probe = append(probe, intRow(int64(i%128), int64(i)))
			}
			return testing.AllocsPerRun(3, func() {
				op := joins[name](rows(probe...))
				if err := ForEachBatchRow(op, func([]value.Value) error { return nil }); err != nil {
					t.Fatal(err)
				}
				op.Close()
			})
		}
		small, large := allocs(10_000), allocs(20_000)
		if large > small+8 {
			t.Errorf("%s join: %.0f allocations for 10k probe rows, %.0f for 20k", name, small, large)
		}
	}
}
