package expr

import (
	"fmt"
	"strings"
	"testing"

	"nodb/internal/sql"
	"nodb/internal/value"
)

// vecTestRows is a batch over testEnv's layout (a int, b int, f float,
// s text, x int) with NULLs sprinkled through every column.
func vecTestRows() [][]value.Value {
	return [][]value.Value{
		{value.Int(5), value.Int(10), value.Float(2.5), value.Text("hello"), value.Int(0)},
		{value.Int(1), value.Int(0), value.Float(-1.5), value.Text("he"), value.Int(1)},
		{value.Null(), value.Int(3), value.Null(), value.Null(), value.Int(7)},
		{value.Int(-4), value.Null(), value.Float(0), value.Text("xyz"), value.Int(2)},
		{value.Int(1234), value.Int(7), value.Float(3.25), value.Text("v1abc"), value.Int(3)},
		{value.Int(5), value.Int(5), value.Float(5), value.Text("5"), value.Null()},
		{value.Int(0), value.Int(-2), value.Float(0.5), value.Text(""), value.Int(4)},
	}
}

// colsOf transposes rows into batch columns.
func colsOf(rows [][]value.Value) [][]value.Value {
	if len(rows) == 0 {
		return nil
	}
	cols := make([][]value.Value, len(rows[0]))
	for i := range cols {
		cols[i] = make([]value.Value, len(rows))
		for r := range rows {
			cols[i][r] = rows[r][i]
		}
	}
	return cols
}

func identSel(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// vecCorpus are expressions covering every vector kernel; each must
// compile to a VecEval and agree with row evaluation value for value.
var vecCorpus = []string{
	// Comparisons, all modes.
	"a = 5", "a != 5", "a < b", "a <= b", "a > b", "a >= 5",
	"f > 1.0", "f <= a", "a = f", // float-involved
	"s = 'hello'", "s < 'x'", "s >= 'he'", // text
	"s = a", "a < s", // generic text-vs-numeric
	// Arithmetic.
	"a + b = 15", "b - a = 5", "a * 2 = b", "b % 3 = 1",
	"a + b", "a - b * 2", "-a", "-f", "a * b + x",
	"f * 2", "f + a", "a + 0.5",
	// Logic (three-valued, narrowing).
	"a > 3 AND b > 3", "a > 99 OR b = 10", "a > 0 AND b > 0 AND x > 0",
	"a = 5 OR s = 'xyz'", "NOT a = 5", "NOT (a > 3 AND b > 3)",
	// NULL handling.
	"a IS NULL", "a IS NOT NULL", "s IS NULL", "a = 1 AND b = 10",
	// IN / BETWEEN / LIKE.
	"a IN (1, 5, 7)", "a NOT IN (1, 5, 7)", "a IN (1, NULL)", "a IN (5, NULL)",
	"a BETWEEN 1 AND 5", "a NOT BETWEEN 6 AND 9", "f BETWEEN 0 AND 3",
	"a BETWEEN b AND x", "s BETWEEN 'a' AND 'm'",
	"s LIKE 'he%'", "s LIKE '%llo'", "s LIKE 'h_llo'", "s NOT LIKE 'v1%'",
	// Scalar functions (shared applyScalarFunc, reused argument scratch).
	"LENGTH(s) > 2", "LENGTH(s)", "UPPER(s) = 'HELLO'", "LOWER(s)",
	"ABS(a) > 3", "ABS(f)", "ABS(a - b)",
	"SUBSTR(s, 2) = 'ello'", "SUBSTR(s, 1, 2)", "SUBSTR(s, 2, x)",
	"COALESCE(a, b)", "COALESCE(a, b, x) = 5", "COALESCE(a, 0) + 1",
	// Non-boolean predicates (never TRUE, but must still evaluate).
	"a + 1", "s",
}

// TestVecMatchesRowOnCorpus cross-checks EvalInto and SelectTrue against
// the row evaluator over the full batch and over a narrowed selection.
func TestVecMatchesRowOnCorpus(t *testing.T) {
	rows := vecTestRows()
	cols := colsOf(rows)
	full := identSel(len(rows))
	odd := []int32{1, 3, 5}
	env := testEnv()
	for _, cond := range vecCorpus {
		n := compileWhere(t, cond, env)
		ve, ok := CompileVec(n)
		if !ok {
			t.Errorf("%q: no vector kernel", cond)
			continue
		}
		if ve.Kind() != n.Kind() {
			t.Errorf("%q: vec kind %v, row kind %v", cond, ve.Kind(), n.Kind())
		}
		for _, sel := range [][]int32{full, odd, {}, nil} {
			out := make([]value.Value, len(sel))
			if err := ve.EvalInto(cols, sel, out); err != nil {
				t.Errorf("%q: vec error %v", cond, err)
				continue
			}
			var wantTrue []int32
			for k, r := range sel {
				want, err := n.Eval(rows[r])
				if err != nil {
					t.Fatalf("%q: row error %v", cond, err)
				}
				if out[k] != want {
					t.Errorf("%q row %d: vec=%v row=%v", cond, r, out[k], want)
				}
				if want.IsTrue() {
					wantTrue = append(wantTrue, r)
				}
			}
			got, err := ve.SelectTrue(cols, sel, nil)
			if err != nil {
				t.Errorf("%q: SelectTrue error %v", cond, err)
				continue
			}
			if len(got) != len(wantTrue) {
				t.Errorf("%q sel=%v: SelectTrue=%v want %v", cond, sel, got, wantTrue)
				continue
			}
			for i := range got {
				if got[i] != wantTrue[i] {
					t.Errorf("%q sel=%v: SelectTrue=%v want %v", cond, sel, got, wantTrue)
					break
				}
			}
		}
	}
}

// TestVecShortCircuitNarrowing: the right side of AND/OR must only be
// evaluated for rows the left side leaves undecided — exactly the rows the
// row evaluator's short-circuit evaluates it for, as observed through
// runtime errors.
func TestVecShortCircuitNarrowing(t *testing.T) {
	env := testEnv()
	rows := [][]value.Value{
		{value.Int(1), value.Int(2), value.Float(0), value.Text(""), value.Int(0)},
		{value.Int(2), value.Int(0), value.Float(0), value.Text(""), value.Int(0)}, // b = 0
		{value.Int(3), value.Int(5), value.Float(0), value.Text(""), value.Int(0)},
	}
	cols := colsOf(rows)
	sel := identSel(len(rows))

	// Division guarded by the left conjunct: neither evaluator may error.
	n := compileWhere(t, "b != 0 AND 10 / b > 1", env)
	ve, ok := CompileVec(n)
	if !ok {
		t.Fatal("no vector kernel")
	}
	got, err := ve.SelectTrue(cols, sel, nil)
	if err != nil {
		t.Fatalf("guarded division errored: %v", err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("sel=%v, want [0 2]", got)
	}

	// Unguarded division: the row evaluator errors on row 1, so the vector
	// path must error too.
	n = compileWhere(t, "b = 0 AND 10 / b > 1", env)
	ve, ok = CompileVec(n)
	if !ok {
		t.Fatal("no vector kernel")
	}
	if _, err := ve.SelectTrue(cols, sel, nil); err == nil {
		t.Fatal("unguarded division did not error")
	} else if !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("wrong error: %v", err)
	}

	// OR narrowing: rows where the left is TRUE must skip the right side.
	n = compileWhere(t, "b = 0 OR 10 / b > 1", env)
	ve, _ = CompileVec(n)
	got, err = ve.SelectTrue(cols, sel, nil)
	if err != nil {
		t.Fatalf("OR-guarded division errored: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("sel=%v, want all three", got)
	}
}

// TestCompileVecFallback: expressions without a vector kernel report
// ok=false, and the evaluator that comes back runs the row evaluator, row
// for row (errors included), without charging VecRows.
func TestCompileVecFallback(t *testing.T) {
	env := testEnv()
	rows := vecTestRows()
	cols := colsOf(rows)
	for _, cond := range []string{
		"-s = 'x'",           // negation of text errors at run time
		"a IN (1, b)",        // non-constant IN list item evaluates lazily
		"COALESCE(s, a)",     // mixed-kind COALESCE tracks its runtime argument
		"COALESCE(a, f) = 1", // int/float mix likewise
	} {
		n := compileWhere(t, cond, env)
		ve, ok := CompileVec(n)
		if ok {
			t.Errorf("%q unexpectedly vectorized", cond)
			continue
		}
		if ve.Kind() != n.Kind() {
			t.Errorf("%q: kind %v, row kind %v", cond, ve.Kind(), n.Kind())
		}
		for r := range rows {
			want, wantErr := n.Eval(rows[r])
			sel := []int32{int32(r)}
			out := make([]value.Value, 1)
			err := ve.EvalInto(cols, sel, out)
			got, selErr := ve.SelectTrue(cols, sel, nil)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || fmt.Sprint(selErr) != fmt.Sprint(wantErr) {
				t.Errorf("%q row %d: row error %v, EvalInto %v, SelectTrue %v", cond, r, wantErr, err, selErr)
				continue
			}
			if wantErr != nil {
				continue
			}
			if out[0] != want {
				t.Errorf("%q row %d: EvalInto=%v row=%v", cond, r, out[0], want)
			}
			if (len(got) == 1) != want.IsTrue() {
				t.Errorf("%q row %d: SelectTrue=%v, row value %v", cond, r, got, want)
			}
		}
		if ve.VecRows() != 0 {
			t.Errorf("%q: row-mode evaluator charged VecRows=%d", cond, ve.VecRows())
		}
	}
}

// TestVecKindMismatchBailsToRowPath: a batch value whose runtime kind
// deviates from the column's static kind must divert the whole batch to
// row evaluation, not corrupt the typed kernels.
func TestVecKindMismatchBailsToRowPath(t *testing.T) {
	env := testEnv()
	rows := [][]value.Value{
		{value.Int(1), value.Int(1), value.Float(0), value.Text("a"), value.Int(0)},
		{value.Text("7"), value.Int(1), value.Float(0), value.Text("b"), value.Int(0)}, // text in the int column
		{value.Int(7), value.Int(1), value.Float(0), value.Text("c"), value.Int(0)},
	}
	cols := colsOf(rows)
	sel := identSel(len(rows))
	n := compileWhere(t, "a = 7", env)
	ve, ok := CompileVec(n)
	if !ok {
		t.Fatal("no vector kernel")
	}
	got, err := ve.SelectTrue(cols, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Row reference.
	var want []int32
	for _, r := range sel {
		v, err := n.Eval(rows[r])
		if err != nil {
			t.Fatal(err)
		}
		if v.IsTrue() {
			want = append(want, r)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("bail path: got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("bail path: got %v want %v", got, want)
		}
	}
	out := make([]value.Value, len(sel))
	if err := ve.EvalInto(cols, sel, out); err != nil {
		t.Fatal(err)
	}
	for k, r := range sel {
		w, _ := n.Eval(rows[r])
		if out[k] != w {
			t.Fatalf("bail EvalInto row %d: got %v want %v", r, out[k], w)
		}
	}
}

// TestVecDateAndBoolColumns exercises the I-slab sharing kinds end to end.
func TestVecDateAndBoolColumns(t *testing.T) {
	env := NewEnv()
	env.Add("", "d", value.KindDate)
	env.Add("", "ok", value.KindBool)
	rows := [][]value.Value{
		{value.Date(100), value.Bool(true)},
		{value.Date(200), value.Bool(false)},
		{value.Null(), value.Null()},
		{value.Date(150), value.Bool(true)},
	}
	cols := colsOf(rows)
	sel := identSel(len(rows))
	for _, cond := range []string{
		"d > d - 1", "d BETWEEN 100 AND 180", "d = 200",
		"ok", "NOT ok", "ok AND d > 100", "ok OR d IS NULL",
		"d IS NOT NULL AND ok",
	} {
		sel2, err := sql.Parse("SELECT x FROM t WHERE " + cond)
		if err != nil {
			t.Fatalf("parse %q: %v", cond, err)
		}
		n, err := Compile(sel2.Where, env)
		if err != nil {
			t.Fatalf("compile %q: %v", cond, err)
		}
		ve, ok := CompileVec(n)
		if !ok {
			t.Fatalf("%q: no vector kernel", cond)
		}
		out := make([]value.Value, len(sel))
		if err := ve.EvalInto(cols, sel, out); err != nil {
			t.Fatalf("%q: %v", cond, err)
		}
		for k, r := range sel {
			want, err := n.Eval(rows[r])
			if err != nil {
				t.Fatalf("%q: %v", cond, err)
			}
			if out[k] != want {
				t.Errorf("%q row %d: vec=%v row=%v", cond, r, out[k], want)
			}
		}
	}
}
