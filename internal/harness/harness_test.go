// Package harness checks the paper's demo scenarios end to end on the
// public nodb API: the Fig. 2 monitoring panel, the Fig. 3 contenders, the
// friendly race, the updates scenario and the width and budget knobs. It
// holds tests only; cmd/bench and the examples run the scenarios. Every
// check reads deterministic counters, never wall-clock time.
package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nodb"
	"nodb/internal/datagen"
	"nodb/internal/value"
	"nodb/internal/workload"
)

// stdQuery projects two attributes of the generated 6-attribute table
// under a 25% filter on the first.
const stdQuery = "SELECT a2, a4 FROM t WHERE a2 < 250"

// openDB opens a DB closed at the end of the test.
func openDB(t *testing.T) *nodb.DB {
	t.Helper()
	db, err := nodb.Open(nodb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// gen writes spec to a temporary file and returns its path and size.
func gen(t *testing.T, spec datagen.Spec) (string, int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.csv")
	size, err := spec.WriteFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, size
}

// raw opens a fresh DB with the file registered in situ as t.
func raw(t *testing.T, path string, spec datagen.Spec, opts *nodb.RawOptions) *nodb.DB {
	t.Helper()
	db := openDB(t)
	if err := db.RegisterRaw("t", path, spec.SchemaSpec(), opts); err != nil {
		t.Fatal(err)
	}
	return db
}

// query runs q and returns its result.
func query(t *testing.T, db *nodb.DB, q string) *nodb.Result {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// count returns SELECT COUNT(*) FROM t.
func count(t *testing.T, db *nodb.DB) int64 {
	t.Helper()
	return query(t, db, "SELECT COUNT(*) FROM t").Rows[0][0].(int64)
}

// sortedRows renders a result's rows order-insensitively.
func sortedRows(res *nodb.Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r...)
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// TestFig3Breakdown: the load-first engine pays its load up front and
// never tokenizes at query time, the baseline tokenizes every query and
// never hits a cache, and the raw table tokenizes less than the baseline
// because it serves later queries from its cache.
func TestFig3Breakdown(t *testing.T) {
	spec := datagen.IntTable(4000, 6, 1)
	path, size := gen(t, spec)
	loaded := openDB(t)
	_, ls, err := loaded.Load("t", path, spec.SchemaSpec(), nodb.ProfilePostgres)
	if err != nil {
		t.Fatal(err)
	}
	if ls.BytesRead != size {
		t.Errorf("load read %d bytes of a %d-byte file", ls.BytesRead, size)
	}
	base := openDB(t)
	if err := base.RegisterBaseline("t", path, spec.SchemaSpec()); err != nil {
		t.Fatal(err)
	}
	pgraw := raw(t, path, spec, nil)
	var baseTok, rawTok, rawHits int64
	for i := 0; i < 6; i++ {
		if s := query(t, loaded, stdQuery).Stats; s.FieldsTokenized != 0 || s.CacheHitFields != 0 {
			t.Errorf("load-first query %d tokenized %d, cache hits %d", i, s.FieldsTokenized, s.CacheHitFields)
		}
		s := query(t, base, stdQuery).Stats
		if s.FieldsTokenized == 0 || s.CacheHitFields != 0 {
			t.Errorf("baseline query %d tokenized %d, cache hits %d", i, s.FieldsTokenized, s.CacheHitFields)
		}
		baseTok += s.FieldsTokenized
		s = query(t, pgraw, stdQuery).Stats
		rawTok += s.FieldsTokenized
		rawHits += s.CacheHitFields
	}
	if rawTok >= baseTok || rawHits == 0 {
		t.Errorf("raw tokenized %d (baseline %d), cache hits %d", rawTok, baseTok, rawHits)
	}
}

// TestFig2Monitor runs a shifting workload under budgets of a third of the
// file and reads the panel after every query: occupancy stays within the
// budgets, and the map holds grains at the end.
func TestFig2Monitor(t *testing.T) {
	spec := datagen.IntTable(4000, 6, 1)
	path, size := gen(t, spec)
	budget := size / 3
	db := raw(t, path, spec, &nodb.RawOptions{PosMapBudget: budget, CacheBudget: budget})
	qs := workload.ShiftingWindows("t", spec.Schema(), 3, 3, 1)
	var p *nodb.Panel
	for i, q := range qs {
		query(t, db, q.SQL)
		var err error
		if p, err = db.Panel("t"); err != nil {
			t.Fatal(err)
		}
		if p.PosMap.UsedBytes > budget || p.Cache.UsedBytes > budget {
			t.Errorf("query %d: map %d bytes, cache %d, budget %d", i+1, p.PosMap.UsedBytes, p.Cache.UsedBytes, budget)
		}
	}
	if p.Queries != int64(len(qs)) || p.PosMap.Grains == 0 || p.PosMap.UsedBytes == 0 {
		t.Errorf("after %d queries: panel queries %d, map grains %d, map bytes %d",
			len(qs), p.Queries, p.PosMap.Grains, p.PosMap.UsedBytes)
	}
	if !strings.Contains(p.String(), "system monitoring panel") {
		t.Errorf("panel render:\n%s", p)
	}
}

// TestRace: the raw contestant can answer as soon as it is registered,
// having read and learned nothing, while every load-first contestant reads
// the whole file before its first query; all four give the same answers.
func TestRace(t *testing.T) {
	spec := datagen.IntTable(4000, 6, 1)
	path, size := gen(t, spec)
	pgraw := raw(t, path, spec, nil)
	p, err := pgraw.Panel("t")
	if err != nil {
		t.Fatal(err)
	}
	if p.RowCount != -1 || p.NumChunks != 0 || p.PosMap.UsedBytes != 0 || p.Cache.UsedBytes != 0 {
		t.Errorf("raw table learned something before its first query: %+v", p)
	}
	contestants := []*nodb.DB{pgraw}
	for _, c := range []struct {
		profile nodb.Profile
		index   []string
	}{
		{nodb.ProfilePostgres, nil},
		{nodb.ProfileMySQL, nil},
		{nodb.ProfileDBMSX, []string{"a0"}},
	} {
		db := openDB(t)
		_, ls, err := db.Load("t", path, spec.SchemaSpec(), c.profile, c.index...)
		if err != nil {
			t.Fatal(err)
		}
		if ls.BytesRead != size {
			t.Errorf("profile %v: load read %d bytes of a %d-byte file", c.profile, ls.BytesRead, size)
		}
		contestants = append(contestants, db)
	}
	for i, q := range workload.ShiftingWindows("t", spec.Schema(), 2, 4, 1) {
		res := query(t, pgraw, q.SQL)
		if i == 0 && res.Stats.BytesRead != size {
			t.Errorf("first raw query read %d bytes of a %d-byte file", res.Stats.BytesRead, size)
		}
		want := sortedRows(res)
		for c, db := range contestants[1:] {
			if got := sortedRows(query(t, db, q.SQL)); got != want {
				t.Errorf("%s: load-first contestant %d answers differ from the raw table", q.SQL, c+1)
			}
		}
	}
}

// TestUpdatesScenario: an append outside the database and then a rewrite
// are both visible to the next query, with no re-registration.
func TestUpdatesScenario(t *testing.T) {
	const rows, attrs, extra = 4000, 6, 100
	spec := datagen.IntTable(rows, attrs, 1)
	path, _ := gen(t, spec)
	db := raw(t, path, spec, nil)
	if n := count(t, db); n != rows {
		t.Fatalf("initial count %d, want %d", n, rows)
	}
	query(t, db, stdQuery)

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSuffix(strings.Repeat("7,", attrs), ",") + "\n"
	if _, err := f.WriteString(strings.Repeat(line, extra)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n := count(t, db); n != rows+extra {
		t.Errorf("count after appending %d rows: %d, want %d", extra, n, rows+extra)
	}

	small := datagen.IntTable(rows/10, attrs, 2)
	if _, err := small.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if change, err := db.Refresh("t"); err != nil || change != "rewritten" {
		t.Fatalf("refresh after rewrite: change %q, err %v", change, err)
	}
	if n := count(t, db); n != rows/10 {
		t.Errorf("count after rewrite: %d, want %d", n, rows/10)
	}
}

// TestSweepWidth: whatever the width of its text attributes, a repeated
// unfiltered projection is served from the cache and reads no file bytes.
func TestSweepWidth(t *testing.T) {
	for _, w := range []int{4, 32} {
		cols := make([]datagen.ColumnSpec, 6)
		for i := range cols {
			kind := value.KindInt
			if i%2 == 0 {
				kind = value.KindText
			}
			cols[i] = datagen.ColumnSpec{Name: fmt.Sprintf("a%d", i), Kind: kind, Card: 1000, Width: w}
		}
		spec := datagen.Spec{Rows: 4000, Cols: cols, Seed: 1}
		path, _ := gen(t, spec)
		db := raw(t, path, spec, nil)
		cold := query(t, db, "SELECT a3 FROM t")
		warm := query(t, db, "SELECT a3 FROM t")
		if cold.Stats.BytesRead == 0 || warm.Stats.BytesRead != 0 {
			t.Errorf("width %d: cold query read %d bytes, warm %d", w, cold.Stats.BytesRead, warm.Stats.BytesRead)
		}
		if sortedRows(cold) != sortedRows(warm) {
			t.Errorf("width %d: warm answer differs from cold", w)
		}
	}
}

// TestSweepBudget runs a shifting workload twice at a range of budgets: the
// structures never outgrow their budget, and an unlimited budget serves at
// least as many fields from the cache on the second pass as a tiny one.
func TestSweepBudget(t *testing.T) {
	spec := datagen.IntTable(4000, 6, 1)
	path, size := gen(t, spec)
	qs := workload.ShiftingWindows("t", spec.Schema(), 2, 4, 1)
	budgets := []int64{size / 20, size / 5, size, 0} // 0 is unlimited
	hits := make([]int64, len(budgets))
	for i, budget := range budgets {
		db := raw(t, path, spec, &nodb.RawOptions{PosMapBudget: budget, CacheBudget: budget})
		for pass := 0; pass < 2; pass++ {
			for _, q := range qs {
				if s := query(t, db, q.SQL).Stats; pass == 1 {
					hits[i] += s.CacheHitFields
				}
			}
		}
		p, err := db.Panel("t")
		if err != nil {
			t.Fatal(err)
		}
		if budget > 0 && (p.PosMap.UsedBytes > budget || p.Cache.UsedBytes > budget) {
			t.Errorf("budget %d: map %d bytes, cache %d", budget, p.PosMap.UsedBytes, p.Cache.UsedBytes)
		}
	}
	if last := len(budgets) - 1; hits[last] < hits[0] {
		t.Errorf("unlimited budget hit %d fields, budget %d hit %d", hits[last], budgets[0], hits[0])
	}
}
