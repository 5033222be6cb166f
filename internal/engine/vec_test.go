package engine

import (
	"testing"

	"nodb/internal/core"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/sql"
	"nodb/internal/value"
)

// batchStub is a batch-producing operator serving hand-built batches whose
// selection vectors are already narrowed (as if an upstream operator had
// filtered), so tests can observe exactly which rows a consumer touches.
type batchStub struct {
	batches []*core.Batch
	pos     int
}

func (s *batchStub) NextBatch() (*core.Batch, bool, error) {
	if s.pos >= len(s.batches) {
		return nil, false, nil
	}
	b := s.batches[s.pos]
	s.pos++
	return b, true, nil
}

func (s *batchStub) Close() error { return nil }

// stubBatches builds two batches over one int column a = 0..7 with
// pre-narrowed selections [1 3 5] and [0 7].
func stubBatches() *batchStub {
	col := make([]value.Value, 8)
	for i := range col {
		col[i] = value.Int(int64(i))
	}
	return &batchStub{batches: []*core.Batch{
		{Cols: [][]value.Value{col}, Sel: []int32{1, 3, 5}},
		{Cols: [][]value.Value{col}, Sel: []int32{0, 7}},
	}}
}

// rowOnly wraps a node in a type CompileVec has no kernel for, so an
// operator evaluates it through the row fallback: the reference the
// kernels are compared against.
type rowOnly struct{ expr.Node }

// rowOnlyIf wraps n in rowOnly unless vec is set.
func rowOnlyIf(vec bool, n expr.Node) expr.Node {
	if vec {
		return n
	}
	return rowOnly{n}
}

// countingPred wraps a predicate and counts row-at-a-time Eval calls. It is
// not a known node type, so CompileVec has no kernel for it and Filter
// evaluates it through the row fallback.
type countingPred struct {
	inner expr.Node
	n     *int
}

func (c countingPred) Eval(row []value.Value) (value.Value, error) {
	*c.n++
	return c.inner.Eval(row)
}
func (c countingPred) Kind() value.Kind { return c.inner.Kind() }

// TestFilterRowFallbackEvaluatesOnlySelectedRows: with a batch-producing
// child whose selection vector is already narrowed, the row fallback must
// evaluate the predicate exactly once per *selected* row — rows the child
// excluded must never be re-tested.
func TestFilterRowFallbackEvaluatesOnlySelectedRows(t *testing.T) {
	calls := 0
	pred := countingPred{inner: compileOver(t, "a >= 0", 1), n: &calls}
	var b metrics.Breakdown
	f := NewFilter(stubBatches(), pred, &b)
	if f.Vectorized() {
		t.Fatal("counting predicate must not vectorize")
	}
	got := drain(t, f)
	if calls != 5 {
		t.Fatalf("predicate evaluated %d times over selections [1 3 5]+[0 7], want 5", calls)
	}
	if len(got) != 5 {
		t.Fatalf("rows=%d, want 5", len(got))
	}
	if b.VecRows != 0 {
		t.Fatalf("row fallback charged VecRows=%d", b.VecRows)
	}
}

// TestFilterVecNarrowedSelection: the vectorized path must keep exactly
// the rows the row path keeps when the incoming selection is narrowed, and
// charge the VecRows counter.
func TestFilterVecNarrowedSelection(t *testing.T) {
	pred := compileOver(t, "a % 2 = 1", 1)
	var vb metrics.Breakdown
	vf := NewFilter(stubBatches(), pred, &vb)
	if !vf.Vectorized() {
		t.Fatal("arithmetic predicate should vectorize")
	}
	vecRows := drain(t, vf)

	var rb metrics.Breakdown
	rowRows := drain(t, NewFilter(stubBatches(), rowOnly{pred}, &rb))

	if len(vecRows) != len(rowRows) {
		t.Fatalf("vec=%d rows, row=%d rows", len(vecRows), len(rowRows))
	}
	for i := range vecRows {
		if !value.Equal(vecRows[i][0], rowRows[i][0]) {
			t.Fatalf("row %d: vec=%v row=%v", i, vecRows[i][0], rowRows[i][0])
		}
	}
	// [1 3 5] -> all odd; [0 7] -> 7. Five selected rows evaluated.
	if len(vecRows) != 4 {
		t.Fatalf("kept %d rows, want 4", len(vecRows))
	}
	if vb.VecRows != 5 {
		t.Fatalf("VecRows=%d, want 5 (one per selected row)", vb.VecRows)
	}
	if rb.VecRows != 0 {
		t.Fatalf("row path charged VecRows=%d", rb.VecRows)
	}
}

// TestProjectPartialVectorization: a projection mixing covered and
// uncovered expressions vectorizes per expression — the column with a
// non-constant IN list falls back row-at-a-time while the others stay
// columnar — and the output matches the all-row configuration exactly.
func TestProjectPartialVectorization(t *testing.T) {
	mkCols := func() [][]value.Value {
		a := []value.Value{value.Int(1), value.Int(2), value.Null(), value.Int(4)}
		s := []value.Value{value.Text("x"), value.Text("yy"), value.Text("zzz"), value.Null()}
		return [][]value.Value{a, s}
	}
	env := expr.NewEnv()
	env.Add("", "a", value.KindInt)
	env.Add("", "s", value.KindText)
	parse := func(q string) []expr.Node {
		sel, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		var nodes []expr.Node
		for _, it := range sel.Items {
			n, err := expr.Compile(it.Expr, env)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		return nodes
	}
	exprs := parse("SELECT a * 2, a IN (1, a + 3), s FROM t")

	run := func(vec bool) ([][]value.Value, *metrics.Breakdown) {
		stub := &batchStub{batches: []*core.Batch{{Cols: mkCols(), Sel: []int32{0, 1, 2, 3}}}}
		var b metrics.Breakdown
		in := make([]expr.Node, len(exprs))
		for i, e := range exprs {
			in[i] = rowOnlyIf(vec, e)
		}
		p := NewProject(stub, in, &b)
		if vec && p.Vectorized() {
			t.Fatal("the non-constant IN list should demote Vectorized() to false")
		}
		return drain(t, p), &b
	}
	vecOut, vb := run(true)
	rowOut, rb := run(false)
	if len(vecOut) != 4 || len(rowOut) != 4 {
		t.Fatalf("rows: vec=%d row=%d", len(vecOut), len(rowOut))
	}
	for r := range vecOut {
		for c := range vecOut[r] {
			if !value.Equal(vecOut[r][c], rowOut[r][c]) {
				t.Fatalf("row %d col %d: vec=%v row=%v", r, c, vecOut[r][c], rowOut[r][c])
			}
		}
	}
	// Two of three expressions vectorized over 4 rows.
	if vb.VecRows != 8 {
		t.Fatalf("VecRows=%d, want 8", vb.VecRows)
	}
	if rb.VecRows != 0 {
		t.Fatalf("row mode charged VecRows=%d", rb.VecRows)
	}
}

// TestFilterVecOverRawScan runs the vectorized and row filter paths over a
// real in-situ scan (cold and warm, sequential and parallel) and demands
// identical rows.
func TestFilterVecOverRawScan(t *testing.T) {
	for _, par := range []int{1, 4} {
		tbl := batchRawTable(t, 400, par)
		run := func(vec bool) [][]value.Value {
			var b metrics.Breakdown
			scan, err := NewRawScan(tbl, core.ScanSpec{Needed: []int{0, 1, 2}, B: &b})
			if err != nil {
				t.Fatal(err)
			}
			pred := compileOver(t, "c < 2 AND a % 3 != 0", 3)
			f := NewFilter(scan, rowOnlyIf(vec, pred), &b)
			if f.Vectorized() != vec {
				t.Fatalf("Vectorized()=%v, want %v", f.Vectorized(), vec)
			}
			return drain(t, f)
		}
		for pass := 0; pass < 2; pass++ { // cold, then warm (cache-served)
			vecRows := run(true)
			rowRows := run(false)
			if len(vecRows) != len(rowRows) || len(vecRows) == 0 {
				t.Fatalf("par=%d pass=%d: vec=%d row=%d rows", par, pass, len(vecRows), len(rowRows))
			}
			for r := range vecRows {
				for c := range vecRows[r] {
					if !value.Equal(vecRows[r][c], rowRows[r][c]) {
						t.Fatalf("par=%d pass=%d row %d col %d: vec=%v row=%v",
							par, pass, r, c, vecRows[r][c], rowRows[r][c])
					}
				}
			}
		}
	}
}
