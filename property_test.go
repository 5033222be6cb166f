package nodb_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nodb"
	"nodb/internal/datagen"
	"nodb/internal/workload"
)

// TestModesAgreeOnRandomWorkloads is the public-API equivalence property:
// for generated files and generated workloads, the in-situ engine (cold and
// warm), the external-files baseline, and every load-first profile return
// identical result sets.
func TestModesAgreeOnRandomWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			spec := datagen.MixedTable(3000, seed)
			path := filepath.Join(dir, "data.csv")
			if _, err := spec.WriteFile(path); err != nil {
				t.Fatal(err)
			}

			db, err := nodb.Open(nodb.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			ss := spec.SchemaSpec()
			if err := db.RegisterRaw("r", path, ss, nil); err != nil {
				t.Fatal(err)
			}
			if err := db.RegisterBaseline("b", path, ss); err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.Load("lp", path, ss, nodb.ProfilePostgres); err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.Load("lx", path, ss, nodb.ProfileDBMSX, "id"); err != nil {
				t.Fatal(err)
			}

			queries := propertyCorpus(spec, seed)

			for _, q := range queries {
				// Each mode, plus a warm repeat for the raw table.
				want := runRows(t, db, fmt.Sprintf(q, "r"))
				for _, tbl := range []string{"r", "b", "lp", "lx"} {
					got := runRows(t, db, fmt.Sprintf(q, tbl))
					if !rowsEquivalent(got, want) {
						t.Fatalf("query %q on %s differs:\n%v\nvs raw:\n%v", q, tbl, got, want)
					}
					// Streaming cursor equivalence: a QueryContext drain must
					// return exactly what the materializing Query returned
					// (same mode, same engine — byte-identical, not merely
					// float-tolerant).
					streamed := runStream(t, db, fmt.Sprintf(q, tbl))
					if !reflect.DeepEqual(streamed, got) {
						t.Fatalf("query %q on %s: streamed rows differ from Query:\n%v\nvs\n%v",
							q, tbl, streamed, got)
					}
				}
			}
		})
	}
}

func runQ(t *testing.T, db *nodb.DB, q string) string {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	return fmt.Sprint(res.Rows)
}

func runRows(t *testing.T, db *nodb.DB, q string) [][]any {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	return res.Rows
}

// runStream drains q through the streaming cursor API.
func runStream(t *testing.T, db *nodb.DB, q string) [][]any {
	t.Helper()
	rows, err := db.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	defer rows.Close()
	var out [][]any
	for rows.Next() {
		out = append(out, rows.Values())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	return out
}

// rowsEquivalent compares result sets across access modes. Float cells
// compare with a relative tolerance: the raw scan folds SUM/AVG per chunk
// and merges the partials (worker-side partial aggregation), which is a
// different — equally valid — summation order than the loaded engines'
// streaming loop, so the last ulps may differ. Everything else, including
// row count, order and all non-float cells, must match exactly. Identity
// across Parallelism settings (same access mode) stays bitwise-exact and is
// asserted separately in TestAggParallelismEquivalence.
func rowsEquivalent(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			af, aok := a[i][j].(float64)
			bf, bok := b[i][j].(float64)
			if aok != bok {
				return false
			}
			if aok {
				diff := af - bf
				if diff < 0 {
					diff = -diff
				}
				scale := 1.0
				if s := af; s < 0 {
					s = -s
					if s > scale {
						scale = s
					}
				} else if af > scale {
					scale = af
				}
				if diff > 1e-9*scale {
					return false
				}
				continue
			}
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// propertyCorpus builds the query corpus the property tests share: the
// generated shifting-window workload plus fixed shapes covering grouping,
// DISTINCT, BETWEEN, LIKE, point lookups and ORDER BY over NULLs.
func propertyCorpus(spec datagen.Spec, seed int64) []string {
	var queries []string
	for _, q := range workload.ShiftingWindows("%s", spec.Schema(), 2, 3, seed) {
		queries = append(queries, q.SQL)
	}
	return append(queries,
		"SELECT grp, COUNT(*), SUM(score), MIN(id), MAX(id) FROM %s GROUP BY grp ORDER BY grp",
		"SELECT COUNT(DISTINCT grp) FROM %s",
		"SELECT id, user FROM %s WHERE id BETWEEN 100 AND 120 ORDER BY id",
		"SELECT user FROM %s WHERE user LIKE 'v1%%' ORDER BY user LIMIT 10",
		"SELECT id FROM %s WHERE id = 1234",
		"SELECT score FROM %s WHERE score IS NOT NULL ORDER BY score DESC LIMIT 5",
	)
}

// counterStats projects a QueryStats down to its deterministic scan
// counters — the fields that must be bit-identical between the vectorized
// and row evaluators (times vary run to run, and VecRows differs by
// design).
type counterStats struct {
	BytesRead, BytesSkipped, RowsScanned         int64
	FieldsTokenized, FieldsConverted             int64
	CacheHitFields, MapJumpFields, MapNearFields int64
	PartialGroups                                int64
}

func countersOf(s nodb.QueryStats) counterStats {
	return counterStats{
		BytesRead: s.BytesRead, BytesSkipped: s.BytesSkipped, RowsScanned: s.RowsScanned,
		FieldsTokenized: s.FieldsTokenized, FieldsConverted: s.FieldsConverted,
		CacheHitFields: s.CacheHitFields, MapJumpFields: s.MapJumpFields,
		MapNearFields: s.MapNearFields, PartialGroups: s.PartialGroups,
	}
}

// TestVectorizedRowDifferential is the vectorized-vs-row equivalence
// property: every corpus query must return byte-identical rows (including
// group and sort order) and identical scan counters with vectorized
// evaluation forced on and forced off (nodb.OpenRowEval), at
// Parallelism 1 and 8, cold and warm.
func TestVectorizedRowDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	const seed = 1
	dir := t.TempDir()
	spec := datagen.MixedTable(3000, seed)
	path := filepath.Join(dir, "data.csv")
	if _, err := spec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	queries := propertyCorpus(spec, seed)

	for _, par := range []int{1, 8} {
		par := par
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			vecDB, err := nodb.Open(nodb.Config{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			defer vecDB.Close()
			rowDB, err := nodb.OpenRowEval(nodb.Config{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			defer rowDB.Close()
			ss := spec.SchemaSpec()
			if err := vecDB.RegisterRaw("r", path, ss, nil); err != nil {
				t.Fatal(err)
			}
			if err := rowDB.RegisterRaw("r", path, ss, nil); err != nil {
				t.Fatal(err)
			}

			sawVec := false
			for pass := 0; pass < 2; pass++ { // cold, then warm (cache/posmap-served)
				for _, q := range queries {
					sql := fmt.Sprintf(q, "r")
					vres, err := vecDB.Query(sql)
					if err != nil {
						t.Fatalf("pass %d %q (vec): %v", pass, sql, err)
					}
					rres, err := rowDB.Query(sql)
					if err != nil {
						t.Fatalf("pass %d %q (row): %v", pass, sql, err)
					}
					if !reflect.DeepEqual(vres.Rows, rres.Rows) {
						t.Fatalf("pass %d %q: rows differ:\nvec: %v\nrow: %v", pass, sql, vres.Rows, rres.Rows)
					}
					if vc, rc := countersOf(vres.Stats), countersOf(rres.Stats); vc != rc {
						t.Fatalf("pass %d %q: counters differ:\nvec: %+v\nrow: %+v", pass, sql, vc, rc)
					}
					if rres.Stats.VecRows != 0 {
						t.Fatalf("pass %d %q: row evaluator leaked VecRows=%d", pass, sql, rres.Stats.VecRows)
					}
					sawVec = sawVec || vres.Stats.VecRows > 0
				}
			}
			if !sawVec {
				t.Fatal("vectorized path never engaged across the corpus")
			}
		})
	}
}

// TestAdaptationUnderRandomBudgets fuzzes budget settings mid-workload:
// answers must stay identical regardless of eviction pressure or component
// toggling between queries.
func TestAdaptationUnderRandomBudgets(t *testing.T) {
	dir := t.TempDir()
	spec := datagen.IntTable(5000, 8, 11)
	path := filepath.Join(dir, "f.csv")
	if _, err := spec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	db, err := nodb.Open(nodb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.RegisterRaw("t", path, spec.SchemaSpec(), nil); err != nil {
		t.Fatal(err)
	}
	q := "SELECT a1, a5 FROM t WHERE a1 < 300 ORDER BY a1, a5 LIMIT 50"
	want := runQ(t, db, q)
	budgets := []int64{100, 10_000, 1_000_000, 0, 512}
	for i, budget := range budgets {
		if err := db.SetBudgets("t", budget, budget); err != nil {
			t.Fatal(err)
		}
		if err := db.SetComponents("t", i%2 == 0, i%3 != 0, true); err != nil {
			t.Fatal(err)
		}
		if got := runQ(t, db, q); got != want {
			t.Fatalf("budget %d: answers changed", budget)
		}
	}
}

// TestFailureInjection exercises the public API against damaged inputs.
func TestFailureInjection(t *testing.T) {
	db, err := nodb.Open(nodb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dir := t.TempDir()

	// File with interleaved garbage rows must still answer, treating
	// malformed fields as NULLs.
	path := filepath.Join(dir, "garbage.csv")
	content := "1,a\n!!!GARBAGE!!!,@@\n3,c\n,,,,,,\n5,e\n"
	os.WriteFile(path, []byte(content), 0o644)
	if err := db.RegisterRaw("g", path, "id:int,v:text", nil); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT COUNT(*), COUNT(id) FROM g")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 5 || res.Rows[0][1].(int64) != 3 {
		t.Fatalf("garbage counts: %v", res.Rows[0])
	}

	// Zero-byte file: queryable, zero rows.
	empty := filepath.Join(dir, "empty.csv")
	os.WriteFile(empty, nil, 0o644)
	if err := db.RegisterRaw("e", empty, "x:int", nil); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query("SELECT COUNT(*) FROM e")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 0 {
		t.Fatalf("empty count=%v", res.Rows[0][0])
	}

	// File deleted between queries: the next query must fail cleanly, not
	// panic.
	gone := filepath.Join(dir, "gone.csv")
	os.WriteFile(gone, []byte("1\n2\n"), 0o644)
	if err := db.RegisterRaw("gone", gone, "x:int", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT x FROM gone"); err != nil {
		t.Fatal(err)
	}
	os.Remove(gone)
	if _, err := db.Query("SELECT x FROM gone"); err == nil {
		t.Error("query over deleted file succeeded")
	}

	// A single enormous field spanning many read blocks.
	big := filepath.Join(dir, "big.csv")
	f, _ := os.Create(big)
	fmt.Fprint(f, "1,")
	for i := 0; i < 500_000; i++ {
		fmt.Fprint(f, "x")
	}
	fmt.Fprint(f, "\n2,short\n")
	f.Close()
	if err := db.RegisterRaw("big", big, "id:int,v:text", nil); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query("SELECT id, LENGTH(v) FROM big ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].(int64) != 500_000 || res.Rows[1][1].(int64) != 5 {
		t.Fatalf("big field rows: %v", res.Rows)
	}
}
