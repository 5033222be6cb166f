package nodb

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// drainValues pulls every row of a Rows cursor into the Result row shape.
func drainValues(t *testing.T, r *Rows) [][]any {
	t.Helper()
	var out [][]any
	for r.Next() {
		out = append(out, r.Values())
	}
	return out
}

// structState snapshots a raw table's adaptive-structure totals: positional
// map (used bytes, grains, inserts) and cache (used bytes, fragments,
// inserts). Byte-identical structures produce identical snapshots.
func structState(t *testing.T, db *DB, name string) [6]int64 {
	t.Helper()
	tbl, err := db.rawTable(name)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumSegments() != 1 {
		t.Fatalf("table %q is not a single-file raw table", name)
	}
	pm := tbl.Segments()[0].PosMap().Stats()
	cs := tbl.Segments()[0].Cache().Stats()
	return [6]int64{pm.UsedBytes, int64(pm.Grains), pm.Inserts, cs.UsedBytes, int64(cs.Fragments), cs.Inserts}
}

// TestQueryContextCancelDeterministic is the cancellation acceptance test:
// cancelling mid-scan returns ctx.Err() promptly (the file is abandoned
// without being fully scanned), already-committed adaptive side effects form
// a deterministic prefix, and a subsequent warm run produces rows and
// structure contents byte-identical to the never-cancelled path — at
// Parallelism 1 and 8.
func TestQueryContextCancelDeterministic(t *testing.T) {
	const nrows = 3000 // three chunks at the default 1024 rows/chunk
	path := writeCSV(t, nrows)
	q := "SELECT id, name, score FROM t WHERE id % 2 = 0"

	for _, par := range []int{1, 8} {
		par := par
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			// Baseline: cold uncancelled run, then a warm run.
			base := openParallel(t, path, par)
			if _, err := base.Query(q); err != nil {
				t.Fatal(err)
			}
			baseWarm, err := base.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			baseState := structState(t, base, "t")

			// Cancelled path: read one row cold, cancel, drain.
			db := openParallel(t, path, par)
			ctx, cancel := context.WithCancel(context.Background())
			rows, err := db.QueryContext(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !rows.Next() {
				t.Fatalf("no first row: %v", rows.Err())
			}
			cancel()
			for rows.Next() {
			}
			if rows.Err() != context.Canceled {
				t.Fatalf("Err() = %v, want context.Canceled", rows.Err())
			}
			if err := rows.Close(); err != nil {
				t.Fatal(err)
			}
			st := rows.Stats()
			if st.RowsScanned >= nrows {
				t.Fatalf("cancelled scan consumed the whole file (%d rows committed)", st.RowsScanned)
			}

			// Warm rerun after cancellation: rows and structure contents must
			// be byte-identical to the never-cancelled warm path.
			warm, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm.Rows, baseWarm.Rows) {
				t.Fatalf("warm rows after cancel differ from uncancelled warm run")
			}
			if got := structState(t, db, "t"); got != baseState {
				t.Fatalf("structures after cancel+warm = %v, uncancelled = %v", got, baseState)
			}
			// Fully-warm counters must agree too (everything cache-served).
			warm2, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			baseWarm2, err := base.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if warm2.Stats.CacheHitFields != baseWarm2.Stats.CacheHitFields ||
				warm2.Stats.RowsScanned != baseWarm2.Stats.RowsScanned {
				t.Fatalf("fully-warm counters differ: cancel path (%d,%d) vs baseline (%d,%d)",
					warm2.Stats.CacheHitFields, warm2.Stats.RowsScanned,
					baseWarm2.Stats.CacheHitFields, baseWarm2.Stats.RowsScanned)
			}
		})
	}
}

// TestRowsStreamWithoutMaterializing checks the streaming contract: the
// first row arrives after one chunk of work, long before the scan finishes.
func TestRowsStreamWithoutMaterializing(t *testing.T) {
	const nrows = 20_000
	path := writeCSV(t, nrows)
	db := openParallel(t, path, 1)

	rows, err := db.QueryContext(context.Background(), "SELECT id, name FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	st := rows.Stats()
	if st.RowsScanned >= nrows {
		t.Fatalf("first row only after full scan (%d rows scanned)", st.RowsScanned)
	}
	tbl, err := db.rawTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() >= 0 {
		t.Fatalf("scan reached EOF before the first row was served")
	}
	// Early close abandons the rest; a fresh query still sees everything.
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(nrows) {
		t.Fatalf("COUNT(*) = %v after early close, want %d", res.Rows[0][0], nrows)
	}
}

// TestRowsBoundedAllocs asserts that draining a large warm scan through Rows
// allocates per batch, not per row (the materializing path allocates at
// least one []any per row).
func TestRowsBoundedAllocs(t *testing.T) {
	const nrows = 20_000
	path := writeCSV(t, nrows)
	db := openParallel(t, path, 1)
	if _, err := db.Query("SELECT id, score FROM t"); err != nil { // warm structures
		t.Fatal(err)
	}

	var got int
	allocs := testing.AllocsPerRun(3, func() {
		rows, err := db.QueryContext(context.Background(), "SELECT id, score FROM t")
		if err != nil {
			t.Fatal(err)
		}
		got = 0
		var id int64
		var score float64
		for rows.Next() {
			if err := rows.Scan(&id, &score); err != nil {
				t.Fatal(err)
			}
			got++
		}
		rows.Close()
	})
	if got != nrows {
		t.Fatalf("drained %d rows, want %d", got, nrows)
	}
	if perRow := allocs / nrows; perRow > 0.5 {
		t.Fatalf("streaming drain allocates per row: %.0f allocs total (%.2f/row)", allocs, perRow)
	}
}

// TestRowsCloseReleasesPins checks the table-lifetime fix: an in-flight Rows
// pins its tables; Close releases them, and a DB.Close issued mid-iteration
// defers resource teardown (loaded heap close, temp-dir removal) until the
// last pin drops instead of invalidating the table under the scan.
func TestRowsCloseReleasesPins(t *testing.T) {
	const nrows = 5000
	path := writeCSV(t, nrows)
	db, err := Open(Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Load("l", path, testSpec, ProfilePostgres); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterRaw("t", path, testSpec, nil); err != nil {
		t.Fatal(err)
	}

	rows, err := db.QueryContext(context.Background(), "SELECT id FROM l")
	if err != nil {
		t.Fatal(err)
	}
	if got := db.activePins(); got != 1 {
		t.Fatalf("activePins = %d while streaming, want 1", got)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}

	// Close the DB mid-iteration: the pinned heap must stay usable.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT COUNT(*) FROM l"); err == nil {
		t.Fatalf("new query after Close unexpectedly succeeded")
	}
	n := 1
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("drain after DB.Close: %v", err)
	}
	if n != nrows {
		t.Fatalf("drained %d rows, want %d", n, nrows)
	}
	if _, err := os.Stat(db.dataDir); err != nil {
		t.Fatalf("owned data dir removed while a pin was outstanding: %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.activePins(); got != 0 {
		t.Fatalf("activePins = %d after Close, want 0", got)
	}
	if _, err := os.Stat(db.dataDir); !os.IsNotExist(err) {
		t.Fatalf("owned data dir not removed after last pin release (err=%v)", err)
	}
}

// TestPlaceholderBindingAndErrors covers `?` parameters at the public API:
// value binding matches the literal query, and arity/type mistakes are
// reported as errors before execution.
func TestPlaceholderBindingAndErrors(t *testing.T) {
	path := writeCSV(t, 500)
	db := openParallel(t, path, 1)

	want, err := db.Query("SELECT id, name FROM t WHERE id < 10 AND name LIKE 'item-%' ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(context.Background(),
		"SELECT id, name FROM t WHERE id < ? AND name LIKE ? ORDER BY id", 10, "item-%")
	if err != nil {
		t.Fatal(err)
	}
	got := drainValues(t, rows)
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if !reflect.DeepEqual(got, want.Rows) {
		t.Fatalf("bound query rows = %v, want %v", got, want.Rows)
	}

	// Placeholders in the select list and IN lists.
	res, err := db.QueryContext(context.Background(), "SELECT ?, id FROM t WHERE id IN (?, ?) ORDER BY id", "tag", 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	vals := drainValues(t, res)
	res.Close()
	if len(vals) != 2 || vals[0][0] != "tag" || vals[0][1] != int64(3) || vals[1][1] != int64(7) {
		t.Fatalf("select-list/IN placeholders returned %v", vals)
	}

	// Arity mismatches.
	for _, tc := range []struct {
		q    string
		args []any
	}{
		{"SELECT id FROM t WHERE id = ?", nil},
		{"SELECT id FROM t WHERE id = ?", []any{1, 2}},
		{"SELECT id FROM t", []any{1}},
	} {
		if _, err := db.QueryContext(context.Background(), tc.q, tc.args...); err == nil ||
			!strings.Contains(err.Error(), "parameter") {
			t.Fatalf("%q with %d args: err = %v, want arity error", tc.q, len(tc.args), err)
		}
	}
	// Legacy Query cannot bind placeholders.
	if _, err := db.Query("SELECT id FROM t WHERE id = ?"); err == nil {
		t.Fatalf("Query with unbound placeholder unexpectedly succeeded")
	}
	// Unsupported Go type.
	if _, err := db.QueryContext(context.Background(), "SELECT id FROM t WHERE id = ?", struct{ X int }{1}); err == nil ||
		!strings.Contains(err.Error(), "unsupported parameter type") {
		t.Fatalf("struct arg: err = %v, want unsupported-type error", err)
	}
	// time.Time binds as a DATE string.
	r2, err := db.QueryContext(context.Background(), "SELECT ? FROM t LIMIT 1",
		time.Date(2012, 8, 27, 10, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	v := drainValues(t, r2)
	r2.Close()
	if v[0][0] != "2012-08-27" {
		t.Fatalf("time.Time bound as %v, want 2012-08-27", v[0][0])
	}
}

// TestPrepareReuse checks prepared statements: repeated executions reuse the
// plan skeleton (PlanCacheHits=1 in stats), results stay correct across
// bindings, and catalog changes transparently re-prepare.
func TestPrepareReuse(t *testing.T) {
	path := writeCSV(t, 1000)
	db := openParallel(t, path, 1)

	stmt, err := db.Prepare("SELECT COUNT(*) FROM t WHERE grp = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if stmt.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", stmt.NumParams())
	}
	for i, grp := range []int{0, 1, 2} {
		res, err := stmt.Query(grp)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0] != int64(100) {
			t.Fatalf("grp=%d count = %v, want 100", grp, res.Rows[0][0])
		}
		if res.Stats.PlanCacheHits != 1 {
			t.Fatalf("execution %d: PlanCacheHits = %d, want 1", i, res.Stats.PlanCacheHits)
		}
	}

	// Unprepared QueryContext also hits the plan cache on repetition.
	h0, m0 := db.PlanCacheCounters()
	for i := 0; i < 2; i++ {
		r, err := db.QueryContext(context.Background(), "SELECT MAX(id) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		drainValues(t, r)
		r.Close()
	}
	h1, m1 := db.PlanCacheCounters()
	if h1-h0 != 1 || m1-m0 != 1 {
		t.Fatalf("plan cache deltas hits=%d misses=%d, want 1 and 1", h1-h0, m1-m0)
	}

	// Catalog change invalidates the skeleton; the statement re-prepares.
	if !db.Drop("t") {
		t.Fatal("drop failed")
	}
	if _, err := stmt.Query(0); err == nil {
		t.Fatalf("stmt over dropped table unexpectedly succeeded")
	}
	if err := db.RegisterRaw("t", path, testSpec, nil); err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Query(3)
	if err != nil {
		t.Fatalf("stmt after re-register: %v", err)
	}
	if res.Rows[0][0] != int64(100) {
		t.Fatalf("count after re-register = %v, want 100", res.Rows[0][0])
	}
}

// TestExplainStreams checks EXPLAIN through the cursor API matches the
// materialized path.
func TestExplainStreams(t *testing.T) {
	path := writeCSV(t, 100)
	db := openParallel(t, path, 1)
	q := "EXPLAIN SELECT grp, COUNT(*) FROM t WHERE id < 50 GROUP BY grp ORDER BY grp"
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got := drainValues(t, rows)
	rows.Close()
	if !reflect.DeepEqual(got, want.Rows) {
		t.Fatalf("EXPLAIN rows differ:\n%v\nvs\n%v", got, want.Rows)
	}
}

// TestQueryEquivalentToQueryContext pins the wrapper contract on a mixed
// query set: Query must return exactly what a QueryContext drain returns.
func TestQueryEquivalentToQueryContext(t *testing.T) {
	path := writeCSV(t, 2000)
	db := openParallel(t, path, 0) // default parallelism
	for _, q := range []string{
		"SELECT * FROM t WHERE id < 100",
		"SELECT grp, COUNT(*), SUM(score) FROM t GROUP BY grp ORDER BY grp",
		"SELECT name FROM t WHERE flag ORDER BY score DESC LIMIT 7",
		"SELECT COUNT(*) FROM t",
		"SELECT DISTINCT grp FROM t ORDER BY grp",
	} {
		want, err := db.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		rows, err := db.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		got := drainValues(t, rows)
		if err := rows.Err(); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		rows.Close()
		if len(got) != len(want.Rows) {
			t.Fatalf("%q: %d streamed rows vs %d materialized", q, len(got), len(want.Rows))
		}
		if !reflect.DeepEqual(got, want.Rows) {
			t.Fatalf("%q: streamed rows differ from Query", q)
		}
	}
}

// TestConcurrentStreamsWithCatalogChurn stresses the lifetime rules: many
// goroutines stream queries while the catalog is mutated (drop/re-register)
// and the DB finally closes mid-flight. Queries may individually fail with
// "unknown table" or "closed", but nothing may race, panic, or serve wrong
// rows (run under -race in CI).
func TestConcurrentStreamsWithCatalogChurn(t *testing.T) {
	path := writeCSV(t, 4000)
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterRaw("t", path, testSpec, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Load("l", path, testSpec, ProfilePostgres); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tbl := "t"
			if g%2 == 1 {
				tbl = "l"
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				rows, err := db.QueryContext(context.Background(),
					"SELECT id, score FROM "+tbl+" WHERE grp = ?", g%10)
				if err != nil {
					continue // dropped or closed mid-churn: fine
				}
				n := 0
				var id int64
				var score float64
				for rows.Next() {
					if err := rows.Scan(&id, &score); err != nil {
						t.Errorf("scan: %v", err)
						break
					}
					n++
				}
				if err := rows.Err(); err == nil && n != 400 {
					t.Errorf("goroutine %d: clean drain of %s returned %d rows, want 400", g, tbl, n)
				}
				rows.Close()
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		db.Drop("t")
		if err := db.RegisterRaw("t", path, testSpec, nil); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	db.Close()
	close(done)
	wg.Wait()
	if got := db.activePins(); got != 0 {
		t.Fatalf("activePins = %d after shutdown, want 0", got)
	}
}
