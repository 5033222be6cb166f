package nodb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"nodb/internal/faultfs"
)

func writeTestCSV(t *testing.T, rows int) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,item-%d,%g,%d\n", i, i, float64(i)*1.5, i%5)
	}
	path := filepath.Join(t.TempDir(), "events.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const execSchema = "id:int,name:text,score:float,grp:int"

// TestDropMissingKeepsPlanCache is the regression test for the Drop bugfix:
// dropping a table that does not exist must not bump the catalog generation,
// so cached plan skeletons stay valid and the next query still hits.
func TestDropMissingKeepsPlanCache(t *testing.T) {
	path := writeTestCSV(t, 200)
	db, err := Open(Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.RegisterRaw("t", path, execSchema, nil); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT COUNT(*) FROM t"
	if _, err := db.Query(q); err != nil { // populate the cache
		t.Fatal(err)
	}
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanCacheHits != 1 {
		t.Fatalf("warm query missed the plan cache (hits=%d)", res.Stats.PlanCacheHits)
	}

	if db.Drop("does-not-exist") {
		t.Fatal("Drop of a missing table reported true")
	}
	res, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanCacheHits != 1 {
		t.Fatal("no-op Drop invalidated the plan cache")
	}

	// An actual drop must still invalidate.
	if !db.Drop("t") {
		t.Fatal("Drop of a registered table reported false")
	}
	if _, err := db.Query(q); err == nil {
		t.Fatal("query over a dropped table unexpectedly succeeded")
	}
}

// TestExecDDLRoundTrip drives the catalog purely through Exec and reads it
// back through SHOW TABLES / DESCRIBE on the native Query API.
func TestExecDDLRoundTrip(t *testing.T) {
	path := writeTestCSV(t, 300)
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	stmt := fmt.Sprintf("CREATE EXTERNAL TABLE events (id int, name text, score float, grp int) "+
		"USING raw LOCATION '%s' WITH (parallelism = 1, posmap_budget = 1048576, stats = false)", path)
	if err := db.Exec(ctx, stmt); err != nil {
		t.Fatal(err)
	}
	// Duplicate registration fails without OR REPLACE...
	if err := db.Exec(ctx, stmt); err == nil {
		t.Fatal("duplicate CREATE unexpectedly succeeded")
	}
	// ...and succeeds with it, swapping the mode.
	if err := db.Exec(ctx, fmt.Sprintf(
		"CREATE OR REPLACE EXTERNAL TABLE events USING baseline LOCATION '%s'", path)); err != nil {
		t.Fatal(err)
	}

	res, err := db.Query("SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("SHOW TABLES: %d rows", len(res.Rows))
	}
	if got := fmt.Sprint(res.Rows[0]); got != fmt.Sprintf("[events baseline %s 4 1]", path) {
		t.Fatalf("SHOW TABLES row = %s", got)
	}

	desc, err := db.Query("DESCRIBE events")
	if err != nil {
		t.Fatal(err)
	}
	// Schema was inferred on replace (columns c0..c3 with inferred kinds).
	if len(desc.Rows) != 4 {
		t.Fatalf("DESCRIBE: %d rows", len(desc.Rows))
	}
	if got := fmt.Sprint(desc.Rows[0]); got != "[c0 INT]" {
		t.Fatalf("DESCRIBE first row = %s", got)
	}

	if _, err := db.Query("DESCRIBE nope"); err == nil {
		t.Fatal("DESCRIBE of unknown table unexpectedly succeeded")
	}

	if err := db.Exec(ctx, "DROP TABLE events"); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(ctx, "DROP TABLE events"); err == nil {
		t.Fatal("DROP of missing table unexpectedly succeeded")
	}
	if err := db.Exec(ctx, "DROP TABLE IF EXISTS events"); err != nil {
		t.Fatalf("DROP IF EXISTS: %v", err)
	}
	res, err = db.Query("SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("SHOW TABLES after drop: %d rows", len(res.Rows))
	}

	// Catalog statements are not plan-cache traffic: SHOW TABLES must not
	// inflate the miss counter.
	_, missesBefore := db.PlanCacheCounters()
	for i := 0; i < 3; i++ {
		if _, err := db.Query("SHOW TABLES"); err != nil {
			t.Fatal(err)
		}
	}
	if _, missesAfter := db.PlanCacheCounters(); missesAfter != missesBefore {
		t.Errorf("SHOW TABLES charged %d plan-cache misses", missesAfter-missesBefore)
	}
}

// TestExecAlterTable checks ALTER TABLE SET against the live structures.
func TestExecAlterTable(t *testing.T) {
	path := writeTestCSV(t, 500)
	db, err := Open(Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.RegisterRaw("t", path, execSchema, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT * FROM t"); err != nil { // warm the structures
		t.Fatal(err)
	}
	p, err := db.Panel("t")
	if err != nil {
		t.Fatal(err)
	}
	if p.Cache.UsedBytes == 0 {
		t.Fatal("cache did not populate")
	}
	// Shrinking the cache budget to 1 byte evicts everything immediately.
	if err := db.Exec(nil, "ALTER TABLE t SET (cache_budget = 1, posmap_budget = 1)"); err != nil {
		t.Fatal(err)
	}
	p, err = db.Panel("t")
	if err != nil {
		t.Fatal(err)
	}
	if p.Cache.UsedBytes != 0 || p.PosMap.UsedBytes != 0 {
		t.Fatalf("budget shrink did not evict: cache=%d posmap=%d", p.Cache.UsedBytes, p.PosMap.UsedBytes)
	}
	if p.Cache.BudgetBytes != 1 {
		t.Fatalf("cache budget = %d, want 1", p.Cache.BudgetBytes)
	}
	// Component toggles apply to the next scan.
	if err := db.Exec(nil, "ALTER TABLE t SET (posmap = false, cache = false, stats = false)"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"ALTER TABLE nope SET (cache = true)",
		"ALTER TABLE t SET (bogus = 1)",
		"ALTER TABLE t SET (cache_budget = 'lots')",
		"ALTER TABLE t SET (stats = maybe)",
	} {
		if err := db.Exec(nil, bad); err == nil {
			t.Errorf("Exec(%q) unexpectedly succeeded", bad)
		}
	}
}

// TestExecErrorSurface pins the routing errors between Exec and Query, and
// CREATE option validation.
func TestExecErrorSurface(t *testing.T) {
	path := writeTestCSV(t, 50)
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.RegisterRaw("t", path, execSchema, nil); err != nil {
		t.Fatal(err)
	}

	// Non-DDL through Exec: pointed redirection errors — also for a
	// parameterized SELECT, where the redirection must win over the
	// DDL-takes-no-arguments arity check.
	for _, q := range []string{"SELECT * FROM t", "SHOW TABLES", "DESCRIBE t"} {
		err := db.Exec(nil, q)
		if err == nil || !strings.Contains(err.Error(), "through Query") {
			t.Errorf("Exec(%q) = %v, want 'through Query' error", q, err)
		}
	}
	if err := db.Exec(nil, "SELECT * FROM t WHERE id < ?", 100); err == nil || !strings.Contains(err.Error(), "through Query") {
		t.Errorf("Exec(parameterized SELECT) = %v, want 'through Query' error", err)
	}
	// DDL through Query: the not-a-SELECT error.
	if _, err := db.Query("DROP TABLE t"); err == nil || !strings.Contains(err.Error(), "Exec") {
		t.Errorf("Query(DROP) = %v, want Exec redirection", err)
	}
	if !IsNotSelectError(func() error { _, err := db.Prepare("SHOW TABLES"); return err }()) {
		t.Error("Prepare(SHOW TABLES) did not report a not-SELECT error")
	}
	// DDL takes no arguments.
	if err := db.Exec(nil, "DROP TABLE IF EXISTS x", 1); err == nil {
		t.Error("Exec with arguments unexpectedly succeeded")
	}

	// CREATE validation: bad options, bad globs, load-mode constraints.
	for _, bad := range []string{
		"CREATE EXTERNAL TABLE x USING raw LOCATION 'no-such-*.csv'",
		"CREATE EXTERNAL TABLE x USING raw LOCATION '" + path + "' WITH (bogus = 1)",
		"CREATE EXTERNAL TABLE x USING raw LOCATION '" + path + "' WITH (delim = ';;')",
		"CREATE EXTERNAL TABLE x USING raw LOCATION '" + path + "' WITH (parallelism = 'many')",
		"CREATE EXTERNAL TABLE x USING raw LOCATION '" + path + "' WITH (profile = oracle)",
		"CREATE EXTERNAL TABLE x USING load LOCATION '" + path + "' WITH (delim = ';')",
		"CREATE EXTERNAL TABLE x (id int) USING load LOCATION '" + path + "' WITH (index = 'missing')",
		// Baseline has no adaptive structures: structure options must be
		// rejected, not silently dropped.
		"CREATE EXTERNAL TABLE x USING baseline LOCATION '" + path + "' WITH (posmap_budget = 4096)",
		"CREATE EXTERNAL TABLE x USING baseline LOCATION '" + path + "' WITH (stats = true)",
		// ...and the load-only options are rejected on the raw modes.
		"CREATE EXTERNAL TABLE x USING raw LOCATION '" + path + "' WITH (profile = postgres)",
		"CREATE EXTERNAL TABLE x USING baseline LOCATION '" + path + "' WITH (index = 'id')",
	} {
		if err := db.Exec(nil, bad); err == nil {
			t.Errorf("Exec(%q) unexpectedly succeeded", bad)
		}
	}
	// Nothing above leaked a registration.
	if got := len(db.Tables()); got != 1 {
		t.Fatalf("%d tables registered, want 1", got)
	}
}

// TestCreateTableLoadDDL registers a load-first table through DDL with a
// profile and index, and checks the planner can use it.
func TestCreateTableLoadDDL(t *testing.T) {
	path := writeTestCSV(t, 400)
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(nil, fmt.Sprintf(
		"CREATE EXTERNAL TABLE loaded (id int, name text, score float, grp int) "+
			"USING load LOCATION '%s' WITH (profile = 'dbms-x', index = 'id')", path)); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("EXPLAIN SELECT name FROM loaded WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	if plan := fmt.Sprint(res.Rows); !strings.Contains(plan, "IndexScan") {
		t.Errorf("expected IndexScan in plan, got %s", plan)
	}
	res, err = db.Query("SELECT name FROM loaded WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "item-7" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestShowTablesDoesNoFileIO is the regression test for SHOW TABLES
// discovering byte-range partition boundaries (a file open plus boundary
// probes) while holding the catalog lock: with every open of the file
// counted and every read failing, the listing must still succeed, touch
// nothing, and report the undiscovered segment count as NULL. Once a query
// has discovered the boundaries it reports the count.
func TestShowTablesDoesNoFileIO(t *testing.T) {
	path := writeTestCSV(t, 300)
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(context.Background(), fmt.Sprintf(
		"CREATE EXTERNAL TABLE p (id int, name text, score float, grp int) "+
			"USING raw LOCATION '%s' WITH (partition_bytes = 2048)", path)); err != nil {
		t.Fatal(err)
	}
	var opens atomic.Int64
	uninstall := faultfs.Install(func(p string) bool {
		if p == path {
			opens.Add(1)
		}
		return p == path
	}, faultfs.Options{Kind: faultfs.PermanentErr})
	defer uninstall()

	res, err := db.Query("SHOW TABLES")
	if err != nil {
		t.Fatalf("SHOW TABLES over an unreadable file: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][4] != nil {
		t.Fatalf("SHOW TABLES before discovery = %v, want one row with NULL shards", res.Rows)
	}
	if n := opens.Load(); n != 0 {
		t.Fatalf("SHOW TABLES opened the table file %d times", n)
	}

	uninstall()
	if _, err := db.Query("SELECT count(*) FROM p"); err != nil {
		t.Fatal(err)
	}
	if res, err = db.Query("SHOW TABLES"); err != nil {
		t.Fatal(err)
	}
	if n, ok := res.Rows[0][4].(int64); !ok || n < 3 {
		t.Fatalf("SHOW TABLES after a scan reports shards=%v, want the discovered partition count", res.Rows[0][4])
	}
}
