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
	"nodb/internal/sql"
	"nodb/internal/value"
)

// TestRowKeyLongTextNoCollision is the regression test for the 2-byte
// length prefix: it wrapped at 64 KiB, letting text absorb a neighbouring
// column's encoding so two different rows shared one key. The construction
// below collides under the old encoding (both rows rendered to the same
// byte string, with matching wrapped length prefixes) and must produce two
// distinct keys under the uvarint prefix.
func TestRowKeyLongTextNoCollision(t *testing.T) {
	// Old encoding per column: kindByte, len&0xff, (len>>8)&0xff, bytes.
	// Row A: ["A", 'a'*65533 + "\x03\x05\x00" + "hello"]  (col2 len 65541 ≡ 5)
	// Row B: ["A\x03\x05\x00" + 'a'*65533, "hello"]       (col1 len 65537 ≡ 1)
	tail := "\x03\x05\x00hello"
	rowA := []value.Value{
		value.Text("A"),
		value.Text(strings.Repeat("a", 65533) + tail),
	}
	rowB := []value.Value{
		value.Text("A\x03\x05\x00" + strings.Repeat("a", 65533)),
		value.Text("hello"),
	}
	// Sanity: the rows really collide under the old encoding.
	oldKey := func(row []value.Value) string {
		var buf []byte
		for _, v := range row {
			buf = append(buf, byte(v.K))
			s := v.String()
			buf = append(buf, byte(len(s)), byte(len(s)>>8))
			buf = append(buf, s...)
		}
		return string(buf)
	}
	if oldKey(rowA) != oldKey(rowB) {
		t.Fatal("construction no longer collides under the legacy encoding; test needs updating")
	}
	if rowKey(rowA) == rowKey(rowB) {
		t.Error("distinct rows with >=64KiB text share a group key")
	}

	// Behavioral check: grouping keeps the two rows apart.
	var b metrics.Breakdown
	got := drain(t, NewDistinct(rows(rowA, rowB), &b))
	if len(got) != 2 {
		t.Errorf("Distinct merged %d distinct long-text rows into %d", 2, len(got))
	}
	env := expr.NewEnv()
	env.Add("", "a", value.KindText)
	env.Add("", "b", value.KindText)
	key1 := expr.Slot(env, 0)
	key2 := expr.Slot(env, 1)
	grouped := drain(t, NewHashAgg(rows(rowA, rowB), []expr.Node{key1, key2},
		[]AggSpec{{Name: "COUNT", Star: true}}, &b))
	if len(grouped) != 2 {
		t.Errorf("HashAgg merged distinct long-text keys: %d groups", len(grouped))
	}
}

// TestRowKeyEquivalentRowsStillCollide pins the positive direction: rows
// that should group together keep doing so.
func TestRowKeyEquivalentRowsStillCollide(t *testing.T) {
	a := []value.Value{value.Int(7), value.Text("x")}
	b := []value.Value{value.Int(7), value.Text("x")}
	if rowKey(a) != rowKey(b) {
		t.Error("identical rows got different keys")
	}
	if rowKey([]value.Value{value.Int(7)}) == rowKey([]value.Value{value.Text("7")}) {
		t.Error("kind byte lost: Int(7) and Text(\"7\") share a key")
	}
	// A date keys on its day number, as an int does: the kind byte alone
	// keeps Date(2) and Int(2) apart.
	if rowKey([]value.Value{value.Date(2)}) != rowKey([]value.Value{value.Date(2)}) {
		t.Error("identical dates got different keys")
	}
	if rowKey([]value.Value{value.Date(2)}) == rowKey([]value.Value{value.Int(2)}) {
		t.Error("kind byte lost: Date(2) and Int(2) share a key")
	}
}

// TestHashAggBuildAllocsFlat pins the grouping lookup of the aggregation
// build (the path that is not pushed into the scan): looking up an existing
// group allocates nothing, so 20k input rows into 10 groups allocate what
// 10k rows do.
func TestHashAggBuildAllocsFlat(t *testing.T) {
	env := expr.NewEnv()
	env.Add("", "g", value.KindInt)
	env.Add("", "v", value.KindInt)
	allocs := func(n int) float64 {
		var in [][]value.Value
		for i := 0; i < n; i++ {
			in = append(in, intRow(int64(i%10), int64(i)))
		}
		return testing.AllocsPerRun(3, func() {
			op := NewHashAgg(rows(in...), []expr.Node{expr.Slot(env, 0)},
				[]AggSpec{{Name: "COUNT", Star: true}, {Name: "SUM", Arg: expr.Slot(env, 1)}}, &metrics.Breakdown{})
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

// TestHashAggChargesProcessing is the regression test for the silent
// aggregation cost: HashAgg stored a Breakdown but never charged it, so
// grouping time vanished from the paper-style breakdown while Sort charged
// Processing. The build loop must now move the Processing counter.
func TestHashAggChargesProcessing(t *testing.T) {
	var in [][]value.Value
	for i := 0; i < 20000; i++ {
		in = append(in, []value.Value{value.Int(int64(i % 64)), value.Int(int64(i))})
	}
	env := expr.NewEnv()
	env.Add("", "g", value.KindInt)
	env.Add("", "v", value.KindInt)
	key := expr.Slot(env, 0)
	arg := expr.Slot(env, 1)
	var b metrics.Breakdown
	got := drain(t, NewHashAgg(&ValuesOp{Rows: in}, []expr.Node{key},
		[]AggSpec{{Name: "COUNT", Star: true}, {Name: "SUM", Arg: arg}, {Name: "COUNT", Arg: arg, Distinct: true}}, &b))
	if len(got) != 64 {
		t.Fatalf("groups=%d", len(got))
	}
	if b.Times[metrics.Processing] <= 0 {
		t.Errorf("HashAgg charged no Processing time: %v", b.Times)
	}
}

// aggScanTable registers a raw table for pushdown tests.
func aggScanTable(t *testing.T, rows int, opts core.Options) *core.Table {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%d,%g\n", i, i%5, float64(i)*0.25)
	}
	path := filepath.Join(t.TempDir(), "agg.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	sch := schema.MustNew([]schema.Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "g", Kind: value.KindInt},
		{Name: "v", Kind: value.KindFloat},
	})
	tbl, err := core.NewTable(path, sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestHashAggPushdownOverRawScan checks that TryPushdown engages on a bare
// RawScan, produces the same groups as the single-consumer path, and stays
// off when an operator sits between the aggregation and the scan.
func TestHashAggPushdownOverRawScan(t *testing.T) {
	opts := core.InSituOptions()
	opts.ChunkRows = 64
	opts.Parallelism = 4

	env := expr.NewEnv()
	env.Add("", "id", value.KindInt)
	env.Add("", "g", value.KindInt)
	env.Add("", "v", value.KindFloat)
	gKey := expr.Slot(env, 1)
	vArg := expr.Slot(env, 2)
	aggs := []AggSpec{
		{Name: "COUNT", Star: true},
		{Name: "SUM", Arg: vArg},
		{Name: "COUNT", Arg: vArg, Distinct: true},
	}

	run := func(push bool) ([][]value.Value, *metrics.Breakdown) {
		tbl := aggScanTable(t, 1000, opts)
		var b metrics.Breakdown
		scan, err := NewRawScan(tbl, core.ScanSpec{Needed: []int{0, 1, 2}, B: &b})
		if err != nil {
			t.Fatal(err)
		}
		agg := NewHashAgg(scan, []expr.Node{gKey}, aggs, &b)
		if push {
			if !agg.TryPushdown() {
				t.Fatal("pushdown rejected on a bare RawScan")
			}
		}
		return drain(t, agg), &b
	}
	pushed, pb := run(true)
	plain, _ := run(false)
	if len(pushed) != 5 || len(plain) != 5 {
		t.Fatalf("groups: pushed=%d plain=%d", len(pushed), len(plain))
	}
	for i := range pushed {
		for j := range pushed[i] {
			if !value.Equal(pushed[i][j], plain[i][j]) {
				t.Fatalf("group %d col %d: pushed=%v plain=%v", i, j, pushed[i][j], plain[i][j])
			}
		}
	}
	if pb.PartialGroups == 0 {
		t.Error("pushdown ran but folded no partial groups")
	}

	// A filter above the scan (residual predicate) keeps the row loop.
	tbl := aggScanTable(t, 100, opts)
	var b metrics.Breakdown
	scan, err := NewRawScan(tbl, core.ScanSpec{Needed: []int{0, 1, 2}, B: &b})
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := sql.Parse("SELECT id FROM t WHERE id >= 0")
	pred, err := expr.Compile(sel.Where, env)
	if err != nil {
		t.Fatal(err)
	}
	agg := NewHashAgg(NewFilter(scan, pred, &b), []expr.Node{gKey}, aggs, &b)
	if agg.TryPushdown() {
		t.Error("pushdown accepted through a Filter")
	}
	if got := drain(t, agg); len(got) != 5 {
		t.Errorf("fallback groups=%d", len(got))
	}
}

// TestHashAggPushdownRejectsMetadataCount keeps the zero-attribute COUNT(*)
// metadata fast path: a scan with no needed attributes must refuse the
// pushdown so repeated counts keep answering without touching the file.
func TestHashAggPushdownRejectsMetadataCount(t *testing.T) {
	tbl := aggScanTable(t, 300, core.InSituOptions())
	var b metrics.Breakdown
	scan, err := NewRawScan(tbl, core.ScanSpec{Needed: nil, B: &b})
	if err != nil {
		t.Fatal(err)
	}
	agg := NewHashAgg(scan, nil, []AggSpec{{Name: "COUNT", Star: true}}, &b)
	if agg.TryPushdown() {
		t.Error("pushdown accepted on a zero-attribute metadata scan")
	}
	got := drain(t, agg)
	if len(got) != 1 || got[0][0].I != 300 {
		t.Errorf("COUNT(*)=%v", got)
	}
}
