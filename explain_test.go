package nodb

import (
	"fmt"
	"strings"
	"testing"
)

func explainLines(t *testing.T, db *DB, q string) string {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("explain %q: %v", q, err)
	}
	var sb strings.Builder
	for _, r := range res.Rows {
		sb.WriteString(r[0].(string))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestExplainRawScan(t *testing.T) {
	db := openDB(t)
	path := writeCSV(t, 100)
	db.RegisterRaw("t", path, testSpec, nil)

	out := explainLines(t, db, "EXPLAIN SELECT id, name FROM t WHERE grp < 3 ORDER BY id DESC LIMIT 5")
	for _, want := range []string{
		"Limit(5 offset 0)",
		"Sort(id desc)",
		"Project(id, name)",
		"RawScan(t mode=in-situ",
		"filter=(grp < 3)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// EXPLAIN must not execute: a fresh table shows zero queries... the
	// planner does open a scan, so check no rows were actually read instead.
	p, _ := db.Panel("t")
	if p.RowCount != -1 {
		t.Error("EXPLAIN executed the scan")
	}
}

func TestExplainAggregationAndJoin(t *testing.T) {
	db := openDB(t)
	path := writeCSV(t, 100)
	db.RegisterRaw("t", path, testSpec, nil)
	db.RegisterRaw("u", path, testSpec, nil)

	out := explainLines(t, db,
		"EXPLAIN SELECT t.grp, COUNT(*) FROM t JOIN u ON t.id = u.id GROUP BY t.grp HAVING COUNT(*) > 1")
	for _, want := range []string{
		"HashAgg(keys=[t.grp], aggs=[COUNT(*)])",
		"Filter(HAVING (COUNT(*) > 1))",
		"HashJoin(inner on=(t.id = u.id))",
		"RawScan(t ",
		"RawScan(u ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestExplainLoadedAccessPaths(t *testing.T) {
	db := openDB(t)
	path := writeCSV(t, 3000)
	if _, _, err := db.Load("l", path, testSpec, ProfileDBMSX, "id"); err != nil {
		t.Fatal(err)
	}
	// Selective predicate: index scan.
	out := explainLines(t, db, "EXPLAIN SELECT id FROM l WHERE id = 42")
	if !strings.Contains(out, "IndexScan(l") {
		t.Errorf("expected IndexScan:\n%s", out)
	}
	// Unselective predicate: heap scan + filter.
	out = explainLines(t, db, "EXPLAIN SELECT id FROM l WHERE id > 1")
	if !strings.Contains(out, "HeapScan(l") || !strings.Contains(out, "Filter((id > 1))") {
		t.Errorf("expected HeapScan+Filter:\n%s", out)
	}
}

func TestExplainCross(t *testing.T) {
	db := openDB(t)
	path := writeCSV(t, 10)
	db.RegisterRaw("a", path, testSpec, nil)
	db.RegisterRaw("b", path, testSpec, nil)
	out := explainLines(t, db, "EXPLAIN SELECT a.id FROM a CROSS JOIN b")
	if !strings.Contains(out, "NLJoin(cross)") {
		t.Errorf("expected NLJoin:\n%s", out)
	}
}

func TestExplainRoundTripsThroughCLIShape(t *testing.T) {
	db := openDB(t)
	path := writeCSV(t, 10)
	db.RegisterRaw("t", path, testSpec, nil)
	res, err := db.Query("EXPLAIN SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0].Name != "plan" || len(res.Rows) < 2 {
		t.Fatalf("explain result shape: %v / %d rows", res.Columns, len(res.Rows))
	}
	if !strings.Contains(fmt.Sprint(res), "Project") {
		t.Error("render missing plan")
	}
}

// TestExplainVectorizedMarker: plans whose filter/projection run
// column-at-a-time carry a "vec" marker; the row-evaluator DB has none.
func TestExplainVectorizedMarker(t *testing.T) {
	db := openDB(t)
	path := writeCSV(t, 50)
	db.RegisterRaw("t", path, testSpec, nil)

	out := explainLines(t, db, "EXPLAIN SELECT id, grp FROM t WHERE grp < 3")
	for _, want := range []string{"filter=(grp < 3) vec", "Project(id, grp) vec"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// A projection containing an uncovered expression (mixed-kind COALESCE
	// tracks its runtime argument) falls back per expression, so the
	// all-vectorized marker must disappear.
	out = explainLines(t, db, "EXPLAIN SELECT id, COALESCE(name, id) FROM t")
	if strings.Contains(out, "COALESCE(name, id)) vec") {
		t.Errorf("mixed-kind COALESCE projection should not carry the vec marker:\n%s", out)
	}

	rowCfg, err := OpenRowEval(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rowCfg.Close() })
	rowCfg.RegisterRaw("t", path, testSpec, nil)
	out = explainLines(t, rowCfg, "EXPLAIN SELECT id, grp FROM t WHERE grp < 3")
	if strings.Contains(out, " vec") {
		t.Errorf("row-evaluator plan still carries vec markers:\n%s", out)
	}
}
