package core

import (
	"fmt"
	"testing"

	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/sql"
	"nodb/internal/value"
)

// compilePred parses and compiles a WHERE-style condition over env.
func compilePred(t *testing.T, env *expr.Env, cond string) expr.Node {
	t.Helper()
	sel, err := sql.Parse("SELECT x FROM t WHERE " + cond)
	if err != nil {
		t.Fatal(err)
	}
	n, err := expr.Compile(sel.Where, env)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// rowFilter adapts a row closure to the expr.Node a ScanSpec.Filter
// takes. CompileVec has no kernel for it, so scans evaluate it through the
// evaluator's row fallback.
type rowFilter func(row []value.Value) (bool, error)

func (f rowFilter) Eval(row []value.Value) (value.Value, error) {
	keep, err := f(row)
	return value.Bool(keep), err
}

func (rowFilter) Kind() value.Kind { return value.KindBool }

// vecScanSpec builds a filtered spec over (id, score, grp) with the
// predicate id % 2 = 0 AND grp < 5: the compiled node, which has vector
// kernels, or with vec unset the same node behind rowFilter, which has
// none.
func vecScanSpec(t *testing.T, vec bool) ScanSpec {
	t.Helper()
	env := expr.NewEnv()
	env.Add("", "id", value.KindInt)
	env.Add("", "score", value.KindFloat)
	env.Add("", "grp", value.KindInt)
	pred := compilePred(t, env, "id % 2 = 0 AND grp < 5")
	if _, ok := expr.CompileVec(pred); !ok {
		t.Fatal("predicate should vectorize")
	}
	spec := ScanSpec{
		Needed:      []int{0, 2, 3}, // id, score, grp
		FilterAttrs: []int{0, 3},
		Filter:      pred,
	}
	if !vec {
		spec.Filter = rowFilter(func(row []value.Value) (bool, error) {
			v, err := pred.Eval(row)
			return v.IsTrue(), err
		})
	}
	return spec
}

// TestWorkerBatchFilterMatchesRowFilter: the worker-side filter must
// produce the same rows, row order and scan counters through its kernels
// as through the row fallback, sequentially and through the parallel
// pipeline, cold and warm — on a clean file, and on a dirty one under
// on_error=skip, whose ragged rows and malformed filter attributes are
// excluded before the predicate runs.
func TestWorkerBatchFilterMatchesRowFilter(t *testing.T) {
	clean, _ := genCSV(t, 3000)
	inputs := []struct {
		name   string
		path   string
		policy OnErrorPolicy
	}{
		{"clean", clean, OnErrorNull},
		{"dirty skip", genDirtyCSV(t, 3000), OnErrorSkip},
	}
	for _, in := range inputs {
		for _, par := range []int{1, 4} {
			opts := InSituOptions()
			opts.ChunkRows = 128
			opts.Parallelism = par
			opts.OnError = in.policy

			rowTbl := newTable(t, in.path, opts)
			vecTbl := newTable(t, in.path, opts)
			for pass := 0; pass < 2; pass++ {
				label := fmt.Sprintf("%s par=%d pass=%d", in.name, par, pass)
				var rb, vb metrics.Breakdown
				rowSpec := vecScanSpec(t, false)
				rowSpec.B = &rb
				vecSpec := vecScanSpec(t, true)
				vecSpec.B = &vb
				want := collect(t, rowTbl, rowSpec)
				got := collect(t, vecTbl, vecSpec)
				if len(got) == 0 {
					t.Fatalf("%s: no rows", label)
				}
				sameRows(t, label, got, want)
				// Identical selections imply identical selective tuple
				// formation: the scan-side counters must agree exactly.
				if vb.FieldsConverted != rb.FieldsConverted || vb.FieldsTokenized != rb.FieldsTokenized ||
					vb.RowsScanned != rb.RowsScanned || vb.CacheHitFields != rb.CacheHitFields ||
					vb.MalformedFields != rb.MalformedFields || vb.RowsDropped != rb.RowsDropped {
					t.Fatalf("%s: counters diverge: vec={conv %d tok %d rows %d cache %d bad %d dropped %d} row={conv %d tok %d rows %d cache %d bad %d dropped %d}",
						label, vb.FieldsConverted, vb.FieldsTokenized, vb.RowsScanned, vb.CacheHitFields, vb.MalformedFields, vb.RowsDropped,
						rb.FieldsConverted, rb.FieldsTokenized, rb.RowsScanned, rb.CacheHitFields, rb.MalformedFields, rb.RowsDropped)
				}
				if in.policy == OnErrorSkip && vb.RowsDropped == 0 {
					t.Fatalf("%s: dirty file dropped no rows", label)
				}
				if vb.VecRows == 0 {
					t.Fatalf("%s: vectorized path did not engage", label)
				}
				if rb.VecRows != 0 {
					t.Fatalf("%s: row path charged VecRows=%d", label, rb.VecRows)
				}
			}
		}
	}
}
