package nodb_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nodb"
	"nodb/internal/faults"
)

// The SQL-level robustness suite: on_error / max_errors through DDL, the
// same answers and counters at every Parallelism for both evaluators, cold
// and warm, over single-file and sharded tables; typed errors reaching the
// public API; idempotent cursor shutdown.

// dirtyRows renders n deterministic mixed-quality CSV rows: conversion
// failures on fixed strides, ragged rows, and legitimate empty fields.
func dirtyRows(n, idBase int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		id := fmt.Sprint(idBase + i)
		score := fmt.Sprintf("%g", float64(i)*0.25)
		switch {
		case i%11 == 3:
			fmt.Fprintf(&sb, "%s,name-%d\n", id, i) // ragged
			continue
		case i%7 == 2:
			id = "x" + id // id does not convert
		case i%13 == 5:
			score = "NaNope" // score does not convert
		case i%5 == 1:
			id = "" // legitimate NULL
		}
		fmt.Fprintf(&sb, "%s,name-%d,%s,%d\n", id, i, score, i%9)
	}
	return sb.String()
}

const dirtySchema = "id:int,name:text,score:float,grp:int"

func writeDirty(t *testing.T, dir, name string, n, idBase int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(dirtyRows(n, idBase)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// robustnessQueries exercise projection, filtering (the vectorizable
// shapes), and aggregation over dirty columns.
var robustnessQueries = []string{
	"SELECT id, score FROM %s ORDER BY id, score",
	"SELECT id, grp FROM %s WHERE grp < 4 AND score >= 0 ORDER BY id, grp",
	"SELECT COUNT(*), COUNT(id), COUNT(score) FROM %s",
	"SELECT grp, COUNT(*), SUM(score) FROM %s WHERE grp IS NOT NULL GROUP BY grp ORDER BY grp",
}

// TestOnErrorPolicySQLMatrix is the acceptance matrix: for each policy,
// every combination of {Parallelism 1, 8} x {vectorized, row} x {cold,
// warm} x {single-file, sharded} returns identical rows and identical
// (MalformedFields, RowsDropped) counters.
func TestOnErrorPolicySQLMatrix(t *testing.T) {
	dir := t.TempDir()
	writeDirty(t, dir, "single.csv", 1100, 0)
	for i := 0; i < 3; i++ {
		writeDirty(t, dir, fmt.Sprintf("part%d.csv", i), 400, i*400)
	}

	for _, policy := range []string{"null", "skip"} {
		t.Run("policy="+policy, func(t *testing.T) {
			type sig struct {
				rows      string
				malformed int64
				dropped   int64
			}
			want := map[string]sig{} // query+table -> reference signature
			for _, par := range []int{1, 8} {
				for _, vec := range []bool{true, false} {
					open := nodb.Open
					if !vec {
						open = nodb.OpenRowEval
					}
					db, err := open(nodb.Config{Parallelism: par})
					if err != nil {
						t.Fatal(err)
					}
					ddl := fmt.Sprintf(
						"CREATE EXTERNAL TABLE single (%s) USING raw LOCATION '%s' WITH (on_error = '%s', chunk_rows = 128)",
						strings.ReplaceAll(dirtySchema, ":", " "), filepath.Join(dir, "single.csv"), policy)
					if err := db.Exec(context.Background(), ddl); err != nil {
						t.Fatal(err)
					}
					ddl = fmt.Sprintf(
						"CREATE EXTERNAL TABLE sharded (%s) USING raw LOCATION '%s' WITH (on_error = '%s', chunk_rows = 128)",
						strings.ReplaceAll(dirtySchema, ":", " "), filepath.Join(dir, "part*.csv"), policy)
					if err := db.Exec(context.Background(), ddl); err != nil {
						t.Fatal(err)
					}
					for pass := 0; pass < 2; pass++ { // cold, then warm
						for _, tbl := range []string{"single", "sharded"} {
							for _, q := range robustnessQueries {
								sql := fmt.Sprintf(q, tbl)
								res, err := db.Query(sql)
								if err != nil {
									t.Fatalf("par=%d vec=%v pass=%d %q: %v", par, vec, pass, sql, err)
								}
								got := sig{
									rows:      fmt.Sprint(res.Rows),
									malformed: res.Stats.MalformedFields,
									dropped:   res.Stats.RowsDropped,
								}
								key := tbl + "|" + sql
								if ref, ok := want[key]; !ok {
									want[key] = got
								} else if got != ref {
									t.Fatalf("par=%d vec=%v pass=%d %q diverged:\ngot  %+v\nwant %+v",
										par, vec, pass, sql, got, ref)
								}
							}
						}
					}
					db.Close()
				}
			}
			// Sanity: the reference itself shows the policy at work.
			probe := want["single|SELECT id, score FROM single ORDER BY id, score"]
			if probe.malformed == 0 {
				t.Fatal("dirty file produced zero malformed-field events")
			}
			if policy == "skip" && probe.dropped == 0 {
				t.Fatal("on_error=skip dropped zero rows over a dirty file")
			}
			if policy == "null" && probe.dropped != 0 {
				t.Fatalf("on_error=null dropped %d rows", probe.dropped)
			}
		})
	}
}

func TestOnErrorFailSQL(t *testing.T) {
	dir := t.TempDir()
	writeDirty(t, dir, "d.csv", 200, 0)
	db, err := nodb.Open(nodb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ddl := fmt.Sprintf("CREATE EXTERNAL TABLE d (id INT, name TEXT, score FLOAT, grp INT) USING raw LOCATION '%s' WITH (on_error = 'fail')",
		filepath.Join(dir, "d.csv"))
	if err := db.Exec(context.Background(), ddl); err != nil {
		t.Fatal(err)
	}
	_, err = db.Query("SELECT id FROM d")
	if !errors.Is(err, faults.ErrMalformed) && !errors.Is(err, faults.ErrRagged) {
		t.Fatalf("want a typed malformed/ragged error through the public API, got %v", err)
	}
	// Untouched columns keep working under fail.
	res, err := db.Query("SELECT COUNT(name) FROM d")
	if err != nil {
		t.Fatalf("clean column under on_error=fail: %v", err)
	}
	if res.Stats.MalformedFields != 0 {
		t.Fatalf("clean column counted %d events", res.Stats.MalformedFields)
	}
}

func TestMaxErrorsAndAlterSQL(t *testing.T) {
	dir := t.TempDir()
	writeDirty(t, dir, "d.csv", 300, 0)
	db, err := nodb.Open(nodb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ddl := fmt.Sprintf("CREATE EXTERNAL TABLE d (id INT, name TEXT, score FLOAT, grp INT) USING raw LOCATION '%s' WITH (on_error = null, max_errors = 2)",
		filepath.Join(dir, "d.csv")) // bare NULL keyword accepted
	if err := db.Exec(context.Background(), ddl); err != nil {
		t.Fatal(err)
	}
	_, err = db.Query("SELECT id, score FROM d")
	if !errors.Is(err, faults.ErrTooManyErrors) {
		t.Fatalf("want ErrTooManyErrors with budget 2, got %v", err)
	}
	// Deterministic on rerun.
	_, err = db.Query("SELECT id, score FROM d")
	if !errors.Is(err, faults.ErrTooManyErrors) {
		t.Fatalf("rerun: want ErrTooManyErrors, got %v", err)
	}
	// ALTER lifts the budget; the same query now succeeds and counts.
	if err := db.Exec(context.Background(), "ALTER TABLE d SET (max_errors = 0)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT id, score FROM d")
	if err != nil {
		t.Fatalf("after lifting max_errors: %v", err)
	}
	if res.Stats.MalformedFields <= 2 {
		t.Fatalf("MalformedFields=%d, want > 2", res.Stats.MalformedFields)
	}
	nullRows := len(res.Rows)

	// ALTER to skip changes the served rows.
	if err := db.Exec(context.Background(), "ALTER TABLE d SET (on_error = 'skip')"); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query("SELECT id, score FROM d")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) >= nullRows {
		t.Fatalf("skip served %d rows, null served %d", len(res.Rows), nullRows)
	}
	if res.Stats.RowsDropped == 0 {
		t.Fatal("skip dropped nothing")
	}
}

func TestOnErrorDDLValidation(t *testing.T) {
	dir := t.TempDir()
	path := writeDirty(t, dir, "d.csv", 50, 0)
	db, err := nodb.Open(nodb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	bad := []string{
		fmt.Sprintf("CREATE EXTERNAL TABLE x (id INT) USING raw LOCATION '%s' WITH (on_error = 'explode')", path),
		fmt.Sprintf("CREATE EXTERNAL TABLE x (id INT) USING raw LOCATION '%s' WITH (max_errors = -4)", path),
		fmt.Sprintf("CREATE EXTERNAL TABLE x (id INT) USING raw LOCATION '%s' WITH (max_errors = 'many')", path),
		fmt.Sprintf("CREATE EXTERNAL TABLE x (id INT) USING load LOCATION '%s' WITH (on_error = 'skip', profile = 'postgres')", path),
	}
	for _, ddl := range bad {
		if err := db.Exec(context.Background(), ddl); err == nil {
			t.Errorf("accepted: %s", ddl)
		}
	}
	// Baseline mode accepts the policy options (they shape its scan too).
	ok := fmt.Sprintf("CREATE EXTERNAL TABLE b (id INT, name TEXT, score FLOAT, grp INT) USING baseline LOCATION '%s' WITH (on_error = 'skip', max_errors = 100)", path)
	if err := db.Exec(context.Background(), ok); err != nil {
		t.Fatalf("baseline with policy options: %v", err)
	}
	res, err := db.Query("SELECT id FROM b")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RowsDropped == 0 {
		t.Fatal("baseline scan ignored on_error=skip")
	}
}

func TestExplainShowsErrorPolicy(t *testing.T) {
	dir := t.TempDir()
	path := writeDirty(t, dir, "d.csv", 50, 0)
	db, err := nodb.Open(nodb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mk := func(name, with string) {
		ddl := fmt.Sprintf("CREATE EXTERNAL TABLE %s (id INT, name TEXT, score FLOAT, grp INT) USING raw LOCATION '%s'%s", name, path, with)
		if err := db.Exec(context.Background(), ddl); err != nil {
			t.Fatal(err)
		}
	}
	mk("plain", "")
	mk("tuned", " WITH (on_error = 'skip', max_errors = 5)")
	explain := func(tbl string) string {
		res, err := db.Query("EXPLAIN SELECT id FROM " + tbl)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range res.Rows {
			sb.WriteString(r[0].(string))
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	if plan := explain("plain"); strings.Contains(plan, "on_error") {
		t.Fatalf("default policy leaked into EXPLAIN:\n%s", plan)
	}
	plan := explain("tuned")
	if !strings.Contains(plan, "on_error=skip") || !strings.Contains(plan, "max_errors=5") {
		t.Fatalf("EXPLAIN misses the error policy:\n%s", plan)
	}
}

func TestPanelShowsErrorCounters(t *testing.T) {
	dir := t.TempDir()
	path := writeDirty(t, dir, "d.csv", 100, 0)
	db, err := nodb.Open(nodb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.RegisterRaw("d", path, dirtySchema, &nodb.RawOptions{OnError: "skip"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT id, score FROM d"); err != nil {
		t.Fatal(err)
	}
	p, err := db.Panel("d")
	if err != nil {
		t.Fatal(err)
	}
	if p.MalformedFields == 0 || p.RowsDropped == 0 {
		t.Fatalf("panel counters empty: %+v", p)
	}
	out := p.String()
	if !strings.Contains(out, "policy=skip") || !strings.Contains(out, "malformed fields:") {
		t.Fatalf("panel misses the errors line:\n%s", out)
	}
}

// TestRowsCloseIdempotent pins the cursor shutdown contract: double Close,
// Close mid-iteration, and Close after a scan error all return cleanly.
func TestRowsCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	path := writeDirty(t, dir, "d.csv", 500, 0)
	db, err := nodb.Open(nodb.Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.RegisterRaw("d", path, dirtySchema, nil); err != nil {
		t.Fatal(err)
	}

	rows, err := db.QueryContext(context.Background(), "SELECT id FROM d")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no first row")
	}
	for i := 0; i < 3; i++ {
		if err := rows.Close(); err != nil {
			t.Fatalf("close #%d: %v", i+1, err)
		}
	}
	if rows.Next() {
		t.Fatal("Next succeeded after Close")
	}

	// Close after a mid-iteration failure (on_error=fail hits dirty input).
	if err := db.Exec(context.Background(), "ALTER TABLE d SET (on_error = 'fail')"); err != nil {
		t.Fatal(err)
	}
	rows, err = db.QueryContext(context.Background(), "SELECT id, score FROM d")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if rows.Err() == nil {
		t.Fatal("iteration over dirty input under on_error=fail finished cleanly")
	}
	if !errors.Is(rows.Err(), faults.ErrMalformed) && !errors.Is(rows.Err(), faults.ErrRagged) {
		t.Fatalf("untyped iteration error: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("close after error: %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("double close after error: %v", err)
	}
}

// TestVectorizedRowDifferentialMalformed extends the PR-4 differential
// harness to malformed inputs: both evaluators must agree row-for-row and
// counter-for-counter on dirty files under every policy.
func TestVectorizedRowDifferentialMalformed(t *testing.T) {
	dir := t.TempDir()
	path := writeDirty(t, dir, "d.csv", 900, 0)
	for _, policy := range []string{"null", "skip"} {
		for _, par := range []int{1, 8} {
			vecDB, err := nodb.Open(nodb.Config{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			rowDB, err := nodb.OpenRowEval(nodb.Config{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			for _, db := range []*nodb.DB{vecDB, rowDB} {
				if err := db.RegisterRaw("r", path, dirtySchema, &nodb.RawOptions{OnError: policy, ChunkRows: 128}); err != nil {
					t.Fatal(err)
				}
			}
			sawVec := false
			for pass := 0; pass < 2; pass++ {
				for _, q := range robustnessQueries {
					sql := fmt.Sprintf(q, "r")
					vres, err := vecDB.Query(sql)
					if err != nil {
						t.Fatalf("policy=%s par=%d (vec) %q: %v", policy, par, sql, err)
					}
					rres, err := rowDB.Query(sql)
					if err != nil {
						t.Fatalf("policy=%s par=%d (row) %q: %v", policy, par, sql, err)
					}
					if !reflect.DeepEqual(vres.Rows, rres.Rows) {
						t.Fatalf("policy=%s par=%d %q rows differ:\nvec: %v\nrow: %v",
							policy, par, sql, vres.Rows, rres.Rows)
					}
					if vres.Stats.MalformedFields != rres.Stats.MalformedFields ||
						vres.Stats.RowsDropped != rres.Stats.RowsDropped {
						t.Fatalf("policy=%s par=%d %q counters differ: vec (%d,%d) row (%d,%d)",
							policy, par, sql,
							vres.Stats.MalformedFields, vres.Stats.RowsDropped,
							rres.Stats.MalformedFields, rres.Stats.RowsDropped)
					}
					sawVec = sawVec || vres.Stats.VecRows > 0
				}
			}
			if !sawVec {
				t.Fatalf("policy=%s par=%d: vectorized path never engaged", policy, par)
			}
			vecDB.Close()
			rowDB.Close()
		}
	}
}
