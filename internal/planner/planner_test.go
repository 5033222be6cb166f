package planner

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/core"
	"nodb/internal/engine"
	"nodb/internal/metrics"
	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/storage"
	"nodb/internal/value"
)

// setup registers three tables over the same data: "raw" (in-situ),
// "loaded" (heap, stats), "indexed" (heap + B+tree on id), plus a small
// dimension table "dim" for joins.
func setup(t *testing.T, rows int) *schema.Catalog {
	t.Helper()
	dir := t.TempDir()
	sch := schema.MustNew([]schema.Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "name", Kind: value.KindText},
		{Name: "score", Kind: value.KindFloat},
		{Name: "grp", Kind: value.KindInt},
	})
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,n%d,%g,%d\n", i, i, float64(i)/4, i%5)
	}
	csv := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(csv, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	cat := schema.NewCatalog()

	raw, err := core.NewTable(csv, sch, core.InSituOptions())
	if err != nil {
		t.Fatal(err)
	}
	cat.Register(&schema.Table{Name: "raw", Schema: sch, Mode: schema.AccessInSitu, Path: csv, Handle: raw})

	var lb metrics.Breakdown
	loaded, err := storage.LoadCSV(csv, filepath.Join(dir, "l.heap"), sch,
		storage.LoadOptions{CollectStats: true}, &lb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loaded.Close() })
	cat.Register(&schema.Table{Name: "loaded", Schema: sch, Mode: schema.AccessLoadFirst, Path: csv, Handle: loaded})

	indexed, err := storage.LoadCSV(csv, filepath.Join(dir, "i.heap"), sch,
		storage.LoadOptions{CollectStats: true, IndexAttrs: []int{0}}, &lb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { indexed.Close() })
	cat.Register(&schema.Table{Name: "indexed", Schema: sch, Mode: schema.AccessLoadFirst, Path: csv, Handle: indexed})

	dimSch := schema.MustNew([]schema.Column{
		{Name: "grp", Kind: value.KindInt},
		{Name: "label", Kind: value.KindText},
	})
	var db strings.Builder
	for g := 0; g < 5; g++ {
		fmt.Fprintf(&db, "%d,group-%d\n", g, g)
	}
	dimCSV := filepath.Join(dir, "dim.csv")
	os.WriteFile(dimCSV, []byte(db.String()), 0o644)
	dim, err := core.NewTable(dimCSV, dimSch, core.InSituOptions())
	if err != nil {
		t.Fatal(err)
	}
	cat.Register(&schema.Table{Name: "dim", Schema: dimSch, Mode: schema.AccessInSitu, Path: dimCSV, Handle: dim})

	return cat
}

func run(t *testing.T, cat *schema.Catalog, q string) ([][]value.Value, []OutputCol, *metrics.Breakdown) {
	t.Helper()
	sel, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	var b metrics.Breakdown
	plan, err := Build(sel, cat, &b)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	defer plan.Close()
	var out [][]value.Value
	err = engine.ForEachBatchRow(plan.Root, func(row []value.Value) error {
		out = append(out, append([]value.Value(nil), row...))
		return nil
	})
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return out, plan.Columns, &b
}

func TestSelectProjectFilter(t *testing.T) {
	cat := setup(t, 1000)
	for _, tbl := range []string{"raw", "loaded", "indexed"} {
		rows, cols, _ := run(t, cat, fmt.Sprintf("SELECT id, name FROM %s WHERE id < 10", tbl))
		if len(rows) != 10 {
			t.Fatalf("%s: rows=%d", tbl, len(rows))
		}
		if cols[0].Name != "id" || cols[1].Name != "name" {
			t.Errorf("%s: cols=%v", tbl, cols)
		}
		if rows[3][0].I != 3 || rows[3][1].S != "n3" {
			t.Errorf("%s: row3=%v", tbl, rows[3])
		}
	}
}

func TestAllModesAgree(t *testing.T) {
	cat := setup(t, 2000)
	queries := []string{
		"SELECT * FROM %s",
		"SELECT id FROM %s WHERE grp = 3 AND id > 100",
		"SELECT COUNT(*), SUM(id), AVG(score), MIN(id), MAX(id) FROM %s",
		"SELECT grp, COUNT(*) AS n, SUM(score) FROM %s GROUP BY grp ORDER BY grp",
		"SELECT id, score FROM %s WHERE score >= 100.0 ORDER BY id DESC LIMIT 7",
		"SELECT DISTINCT grp FROM %s ORDER BY grp",
		"SELECT grp, COUNT(*) FROM %s WHERE id %% 2 = 0 GROUP BY grp HAVING COUNT(*) > 10 ORDER BY grp",
		"SELECT id + grp AS x FROM %s WHERE id BETWEEN 5 AND 9 ORDER BY x",
		"SELECT name FROM %s WHERE name LIKE 'n12%%' ORDER BY name LIMIT 5",
	}
	for _, q := range queries {
		rawRows, _, _ := run(t, cat, fmt.Sprintf(q, "raw"))
		for _, tbl := range []string{"loaded", "indexed"} {
			got, _, _ := run(t, cat, fmt.Sprintf(q, tbl))
			if len(got) != len(rawRows) {
				t.Fatalf("%q: %s=%d rows, raw=%d", q, tbl, len(got), len(rawRows))
			}
			for r := range got {
				for c := range got[r] {
					if !value.Equal(got[r][c], rawRows[r][c]) {
						t.Fatalf("%q: %s row %d col %d = %v, raw %v", q, tbl, r, c, got[r][c], rawRows[r][c])
					}
				}
			}
		}
	}
}

func TestRepeatedRawQueriesStayCorrect(t *testing.T) {
	cat := setup(t, 1500)
	var prev [][]value.Value
	for i := 0; i < 4; i++ {
		rows, _, _ := run(t, cat, "SELECT id, score FROM raw WHERE grp = 2 ORDER BY id")
		if prev != nil && len(rows) != len(prev) {
			t.Fatalf("pass %d rows=%d, prev=%d", i, len(rows), len(prev))
		}
		prev = rows
	}
	if len(prev) != 300 {
		t.Fatalf("rows=%d", len(prev))
	}
}

func TestIndexScanChosenForSelectivePredicate(t *testing.T) {
	cat := setup(t, 5000)
	// Very selective: equality on the indexed unique id. An index scan reads
	// roughly one page; a heap scan reads them all.
	_, _, b := run(t, cat, "SELECT id, name FROM indexed WHERE id = 1234")
	full, _, bf := run(t, cat, "SELECT id, name FROM loaded WHERE id = 1234")
	if len(full) != 1 {
		t.Fatal("wrong result")
	}
	if b.BytesRead >= bf.BytesRead {
		t.Errorf("index scan read %d bytes, heap %d; expected far less", b.BytesRead, bf.BytesRead)
	}
	if b.RowsScanned != 1 {
		t.Errorf("index scan touched %d rows", b.RowsScanned)
	}
}

func TestHeapScanChosenForUnselectivePredicate(t *testing.T) {
	cat := setup(t, 5000)
	// id > 10 matches ~everything; stats should reject the index.
	rows, _, b := run(t, cat, "SELECT id FROM indexed WHERE id > 10")
	if len(rows) != 4989 {
		t.Fatalf("rows=%d", len(rows))
	}
	if b.RowsScanned != 5000 {
		t.Errorf("expected full heap scan, rowsScanned=%d", b.RowsScanned)
	}
}

func TestJoinRawWithRaw(t *testing.T) {
	cat := setup(t, 100)
	rows, cols, _ := run(t, cat,
		"SELECT r.id, d.label FROM raw r JOIN dim d ON r.grp = d.grp WHERE r.id < 5 ORDER BY r.id")
	if len(rows) != 5 {
		t.Fatalf("rows=%v", rows)
	}
	if cols[1].Name != "label" {
		t.Errorf("cols=%v", cols)
	}
	for i, r := range rows {
		if r[0].I != int64(i) || r[1].S != fmt.Sprintf("group-%d", i%5) {
			t.Errorf("row %d=%v", i, r)
		}
	}
}

func TestJoinModesMixed(t *testing.T) {
	cat := setup(t, 500)
	rows, _, _ := run(t, cat,
		"SELECT COUNT(*) FROM loaded l JOIN dim d ON l.grp = d.grp")
	if len(rows) != 1 || rows[0][0].I != 500 {
		t.Fatalf("rows=%v", rows)
	}
}

func TestLeftJoin(t *testing.T) {
	cat := setup(t, 20)
	// dim only has groups 0..4; raw has grp 0..4 too, so fabricate a miss
	// with an ON that can't match for odd ids.
	rows, _, _ := run(t, cat,
		"SELECT r.id, d.label FROM raw r LEFT JOIN dim d ON r.grp = d.grp AND r.id < 10 ORDER BY r.id")
	if len(rows) != 20 {
		t.Fatalf("rows=%d", len(rows))
	}
	if rows[5][1].IsNull() || !rows[15][1].IsNull() {
		t.Errorf("outer semantics wrong: %v / %v", rows[5], rows[15])
	}
}

func TestCrossJoin(t *testing.T) {
	cat := setup(t, 10)
	rows, _, _ := run(t, cat, "SELECT r.id, d.grp FROM raw r CROSS JOIN dim d")
	if len(rows) != 50 {
		t.Fatalf("rows=%d", len(rows))
	}
}

func TestNonEquiJoin(t *testing.T) {
	cat := setup(t, 10)
	rows, _, _ := run(t, cat, "SELECT r.id, d.grp FROM raw r JOIN dim d ON r.grp > d.grp WHERE r.id = 4")
	// id=4 has grp 4; dim grps 0..3 are smaller -> 4 rows.
	if len(rows) != 4 {
		t.Fatalf("rows=%v", rows)
	}
}

func TestOrderByAliasAndPosition(t *testing.T) {
	cat := setup(t, 50)
	a, _, _ := run(t, cat, "SELECT id * 2 AS dbl FROM raw ORDER BY dbl DESC LIMIT 3")
	bp, _, _ := run(t, cat, "SELECT id * 2 AS dbl FROM raw ORDER BY 1 DESC LIMIT 3")
	if len(a) != 3 || a[0][0].I != 98 {
		t.Fatalf("alias order=%v", a)
	}
	for i := range a {
		if !value.Equal(a[i][0], bp[i][0]) {
			t.Fatal("positional order differs from alias order")
		}
	}
}

func TestOrderByHiddenColumn(t *testing.T) {
	cat := setup(t, 50)
	rows, cols, _ := run(t, cat, "SELECT name FROM raw ORDER BY id DESC LIMIT 2")
	if len(cols) != 1 {
		t.Fatalf("hidden column leaked: %v", cols)
	}
	if rows[0][0].S != "n49" || rows[1][0].S != "n48" {
		t.Fatalf("rows=%v", rows)
	}
}

func TestAggregateExpressions(t *testing.T) {
	cat := setup(t, 100)
	rows, _, _ := run(t, cat, "SELECT SUM(id) / COUNT(*) FROM raw")
	if len(rows) != 1 || rows[0][0].I != 49 { // 4950/100
		t.Fatalf("rows=%v", rows)
	}
	rows2, _, _ := run(t, cat, "SELECT grp, MAX(score) - MIN(score) FROM raw GROUP BY grp ORDER BY grp LIMIT 1")
	if len(rows2) != 1 || rows2[0][1].F != 23.75 { // ids 0..95 step5 -> (95-0)/4
		t.Fatalf("rows2=%v", rows2)
	}
}

func TestCountDistinct(t *testing.T) {
	cat := setup(t, 100)
	rows, _, _ := run(t, cat, "SELECT COUNT(DISTINCT grp) FROM raw")
	if rows[0][0].I != 5 {
		t.Fatalf("count distinct=%v", rows)
	}
}

func TestPlannerErrors(t *testing.T) {
	cat := setup(t, 10)
	bad := []string{
		"SELECT x FROM raw",                                   // unknown column
		"SELECT id FROM nosuch",                               // unknown table
		"SELECT id FROM raw, raw",                             // parser rejects comma join; still an error
		"SELECT id FROM raw r JOIN raw r ON r.id = r.id",      // duplicate alias
		"SELECT id FROM raw HAVING COUNT(*) > 1 WHERE id = 1", // syntax
		"SELECT name FROM raw GROUP BY grp",                   // name not in GROUP BY
		"SELECT SUM(*) FROM raw",                              // SUM(*)
		"SELECT id FROM raw HAVING id > 1",                    // HAVING without aggregation
		"SELECT DISTINCT name FROM raw ORDER BY id",           // DISTINCT + hidden order col
		"SELECT id FROM raw ORDER BY 5",                       // position out of range
	}
	for _, q := range bad {
		sel, err := sql.Parse(q)
		if err != nil {
			continue // parse-level rejection is fine
		}
		var b metrics.Breakdown
		if plan, err := Build(sel, cat, &b); err == nil {
			plan.Close()
			t.Errorf("query %q planned successfully", q)
		}
	}
}

func TestSelectivityOrderingUsesStats(t *testing.T) {
	cat := setup(t, 2000)
	// Warm raw stats on both columns.
	run(t, cat, "SELECT id, grp FROM raw WHERE id >= 0 AND grp >= 0")
	// Now both conjuncts have stats; ensure plan still executes correctly
	// with reordered predicates.
	rows, _, _ := run(t, cat, "SELECT id FROM raw WHERE grp = 1 AND id < 100")
	if len(rows) != 20 {
		t.Fatalf("rows=%d", len(rows))
	}
}

func TestConstantConjunctStaysResidual(t *testing.T) {
	cat := setup(t, 30)
	rows, _, _ := run(t, cat, "SELECT id FROM raw WHERE 1 = 1 AND id < 3")
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	rows2, _, _ := run(t, cat, "SELECT id FROM raw WHERE 1 = 2")
	if len(rows2) != 0 {
		t.Fatalf("rows2=%d", len(rows2))
	}
}

var _ engine.Operator = (*engine.ValuesOp)(nil)

// explain builds the query and returns its EXPLAIN rendering.
func explain(t *testing.T, cat *schema.Catalog, q string) string {
	t.Helper()
	sel, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	var b metrics.Breakdown
	plan, err := Build(sel, cat, &b)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	defer plan.Close()
	return plan.ExplainText
}

func TestExplainSurfacesErrorPolicy(t *testing.T) {
	cat := setup(t, 100)

	// Default policy (null, no cap) stays quiet: the classic label shape.
	out := explain(t, cat, "SELECT id FROM raw WHERE id < 10")
	if strings.Contains(out, "on_error") {
		t.Errorf("default-policy EXPLAIN mentions on_error:\n%s", out)
	}

	entry, ok := cat.Lookup("raw")
	if !ok {
		t.Fatal("raw table missing from catalog")
	}
	tbl := entry.Handle.(*core.Table)

	// A non-default policy changes result rows, so EXPLAIN must surface it.
	tbl.SetErrorPolicy(core.OnErrorSkip, 10)
	out = explain(t, cat, "SELECT id FROM raw WHERE id < 10")
	if !strings.Contains(out, "on_error=skip") || !strings.Contains(out, "max_errors=10") {
		t.Errorf("EXPLAIN missing on_error=skip max_errors=10:\n%s", out)
	}

	// fail with no cap: only the policy is shown.
	tbl.SetErrorPolicy(core.OnErrorFail, 0)
	out = explain(t, cat, "SELECT id FROM raw WHERE id < 10")
	if !strings.Contains(out, "on_error=fail") {
		t.Errorf("EXPLAIN missing on_error=fail:\n%s", out)
	}
	if strings.Contains(out, "max_errors") {
		t.Errorf("EXPLAIN shows max_errors with no cap set:\n%s", out)
	}

	// Back to the default: quiet again (policy changes are live).
	tbl.SetErrorPolicy(core.OnErrorNull, 0)
	out = explain(t, cat, "SELECT id FROM raw WHERE id < 10")
	if strings.Contains(out, "on_error") {
		t.Errorf("restored-default EXPLAIN mentions on_error:\n%s", out)
	}
}
