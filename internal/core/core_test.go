package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nodb/internal/metrics"
	"nodb/internal/rawfile"
	"nodb/internal/schema"
	"nodb/internal/value"
)

var testSchema = schema.MustNew([]schema.Column{
	{Name: "id", Kind: value.KindInt},
	{Name: "name", Kind: value.KindText},
	{Name: "score", Kind: value.KindFloat},
	{Name: "grp", Kind: value.KindInt},
	{Name: "flag", Kind: value.KindBool},
})

// genCSV writes a deterministic test file and returns its path plus the
// parsed reference rows.
func genCSV(t *testing.T, rows int) (string, [][]value.Value) {
	t.Helper()
	var sb strings.Builder
	ref := make([][]value.Value, rows)
	for i := 0; i < rows; i++ {
		flag := "true"
		if i%3 == 0 {
			flag = "false"
		}
		fmt.Fprintf(&sb, "%d,name-%d,%g,%d,%s\n", i, i, float64(i)*0.5, i%7, flag)
		ref[i] = []value.Value{
			value.Int(int64(i)),
			value.Text(fmt.Sprintf("name-%d", i)),
			value.Float(float64(i) * 0.5),
			value.Int(int64(i % 7)),
			value.Bool(i%3 != 0),
		}
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, ref
}

func newTable(t *testing.T, path string, opts Options) *Table {
	t.Helper()
	tbl, err := NewTable(path, testSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// rowCursor reads a scan one row at a time over NextBatch: the row-shaped
// view the scan tests assert against. Like every scan entry point it
// reports a closed or failed scan before serving a buffered row.
type rowCursor struct {
	sc  *Scan
	b   *Batch
	pos int
	row []value.Value
}

func rowsOf(sc *Scan) *rowCursor { return &rowCursor{sc: sc} }

// Next returns the next qualifying row in the Needed layout, reusing the
// slice between calls; ok=false signals end of data.
func (c *rowCursor) Next() ([]value.Value, bool, error) {
	if err := c.sc.usable(); err != nil {
		return nil, false, err
	}
	for c.b == nil || c.pos >= len(c.b.Sel) {
		b, ok, err := c.sc.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		c.b, c.pos = b, 0
	}
	r := c.b.Sel[c.pos]
	c.pos++
	c.row = c.row[:0]
	for _, col := range c.b.Cols {
		c.row = append(c.row, col[r])
	}
	return c.row, true, nil
}

// collect drains a scan into a row matrix.
func collect(t *testing.T, tbl *Table, spec ScanSpec) [][]value.Value {
	t.Helper()
	if spec.B == nil {
		spec.B = &metrics.Breakdown{}
	}
	sc, err := tbl.NewScan(spec)
	if err != nil {
		t.Fatal(err)
	}
	rc := rowsOf(sc)
	defer sc.Close()
	var out [][]value.Value
	for {
		row, ok, err := rc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		cp := make([]value.Value, len(row))
		copy(cp, row)
		out = append(out, cp)
	}
}

func checkRows(t *testing.T, got [][]value.Value, ref [][]value.Value, needed []int) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("got %d rows, want %d", len(got), len(ref))
	}
	for r := range got {
		for i, a := range needed {
			if !value.Equal(got[r][i], ref[r][a]) {
				t.Fatalf("row %d attr %d: got %v, want %v", r, a, got[r][i], ref[r][a])
			}
		}
	}
}

func TestScanAllAttrs(t *testing.T) {
	path, ref := genCSV(t, 3000)
	tbl := newTable(t, path, InSituOptions())
	needed := []int{0, 1, 2, 3, 4}
	got := collect(t, tbl, ScanSpec{Needed: needed})
	checkRows(t, got, ref, needed)
	if tbl.RowCount() != 3000 {
		t.Errorf("rowCount=%d", tbl.RowCount())
	}
}

func TestScanSubsetAndProjectionOrder(t *testing.T) {
	path, ref := genCSV(t, 500)
	tbl := newTable(t, path, InSituOptions())
	needed := []int{3, 0} // out of order on purpose
	got := collect(t, tbl, ScanSpec{Needed: needed})
	checkRows(t, got, ref, needed)
}

func TestScanWithFilter(t *testing.T) {
	path, ref := genCSV(t, 2000)
	tbl := newTable(t, path, Options{ChunkRows: 128, EnablePosMap: true, EnableCache: true, EnableStats: true})
	needed := []int{0, 1, 3}
	spec := ScanSpec{
		Needed:      needed,
		FilterAttrs: []int{3},
		Filter: rowFilter(func(row []value.Value) (bool, error) {
			return row[2].I == 5, nil // grp == 5
		}),
	}
	got := collect(t, tbl, spec)
	var want [][]value.Value
	for _, r := range ref {
		if r[3].I == 5 {
			want = append(want, r)
		}
	}
	checkRows(t, got, want, needed)
}

func TestAdaptationSecondQueryUsesStructures(t *testing.T) {
	path, ref := genCSV(t, 4000)
	tbl := newTable(t, path, Options{ChunkRows: 256, EnablePosMap: true, EnableCache: true, EnableStats: true})
	needed := []int{2}

	var b1 metrics.Breakdown
	got1 := collect(t, tbl, ScanSpec{Needed: needed, B: &b1})
	checkRows(t, got1, ref, needed)
	if b1.CacheHitFields != 0 {
		t.Errorf("first query hit cache: %d", b1.CacheHitFields)
	}
	if b1.FieldsTokenized == 0 || b1.FieldsConverted == 0 {
		t.Errorf("first query did no raw work: %+v", b1)
	}

	var b2 metrics.Breakdown
	got2 := collect(t, tbl, ScanSpec{Needed: needed, B: &b2})
	checkRows(t, got2, ref, needed)
	if b2.CacheHitFields != 4000 {
		t.Errorf("second query cache hits=%d, want 4000", b2.CacheHitFields)
	}
	if b2.FieldsTokenized != 0 || b2.FieldsConverted != 0 {
		t.Errorf("second query still did raw work: tok=%d conv=%d", b2.FieldsTokenized, b2.FieldsConverted)
	}
	if b2.BytesRead != 0 {
		t.Errorf("second query read %d bytes, want 0 (all cached)", b2.BytesRead)
	}
	if b2.BytesSkipped == 0 {
		t.Error("second query should account skipped bytes")
	}
}

func TestPosMapJumpWithoutCache(t *testing.T) {
	path, ref := genCSV(t, 4000)
	tbl := newTable(t, path, Options{ChunkRows: 256, EnablePosMap: true, EnableCache: false})
	needed := []int{2}

	var b1 metrics.Breakdown
	collect(t, tbl, ScanSpec{Needed: needed, B: &b1})

	var b2 metrics.Breakdown
	got2 := collect(t, tbl, ScanSpec{Needed: needed, B: &b2})
	checkRows(t, got2, ref, needed)
	if b2.MapJumpFields == 0 {
		t.Errorf("second query made no map jumps: %+v", b2)
	}
	if b2.FieldsTokenized != 0 {
		t.Errorf("second query tokenized %d fields despite full map", b2.FieldsTokenized)
	}
	// The mapped fast path reads only the needed byte range.
	if b2.BytesRead >= b1.BytesRead {
		t.Errorf("mapped read %d bytes, first scan %d", b2.BytesRead, b1.BytesRead)
	}
	if b2.BytesSkipped == 0 {
		t.Error("mapped path should skip bytes")
	}
}

func TestBaselineNeverAdapts(t *testing.T) {
	path, ref := genCSV(t, 1000)
	tbl := newTable(t, path, BaselineOptions())
	needed := []int{0, 2}
	var b1, b2 metrics.Breakdown
	collect(t, tbl, ScanSpec{Needed: needed, B: &b1})
	got := collect(t, tbl, ScanSpec{Needed: needed, B: &b2})
	checkRows(t, got, ref, needed)
	if b2.FieldsTokenized != b1.FieldsTokenized || b2.FieldsConverted != b1.FieldsConverted {
		t.Errorf("baseline changed behavior across queries: %+v vs %+v", b1, b2)
	}
	if st := tbl.Segments()[0].PosMap().Stats(); st.Inserts != 0 {
		t.Errorf("baseline populated the positional map: %+v", st)
	}
	if st := tbl.Segments()[0].Cache().Stats(); st.Inserts != 0 {
		t.Errorf("baseline populated the cache: %+v", st)
	}
}

func TestSelectiveTokenizingStopsEarly(t *testing.T) {
	path, _ := genCSV(t, 1000)
	tblA := newTable(t, path, BaselineOptions())
	tblB := newTable(t, path, BaselineOptions())
	var bFirst, bLast metrics.Breakdown
	collect(t, tblA, ScanSpec{Needed: []int{0}, B: &bFirst}) // first attribute
	collect(t, tblB, ScanSpec{Needed: []int{4}, B: &bLast})  // last attribute
	if bFirst.FieldsTokenized >= bLast.FieldsTokenized {
		t.Errorf("selective tokenizing: first-attr scan tokenized %d >= last-attr %d",
			bFirst.FieldsTokenized, bLast.FieldsTokenized)
	}
}

func TestSelectiveTupleFormation(t *testing.T) {
	path, _ := genCSV(t, 1000)
	tbl := newTable(t, path, BaselineOptions())
	var b metrics.Breakdown
	spec := ScanSpec{
		Needed:      []int{3, 1}, // grp is filter; name is projection-only
		FilterAttrs: []int{3},
		Filter:      rowFilter(func(row []value.Value) (bool, error) { return row[0].I == 0, nil }),
		B:           &b,
	}
	got := collect(t, tbl, spec)
	// grp==0 matches 1/7th of rows; name conversions should be ~len(got),
	// not 1000.
	wantConversions := int64(1000 + len(got)) // all grp + selected names
	if b.FieldsConverted != wantConversions {
		t.Errorf("converted %d fields, want %d (selective tuple formation)", b.FieldsConverted, wantConversions)
	}
}

func TestCountStarUsesMetadataAfterFirstScan(t *testing.T) {
	path, _ := genCSV(t, 2500)
	tbl := newTable(t, path, InSituOptions())
	var b1 metrics.Breakdown
	rows1 := collect(t, tbl, ScanSpec{Needed: nil, B: &b1})
	if len(rows1) != 2500 {
		t.Fatalf("count scan returned %d rows", len(rows1))
	}
	if b1.BytesRead == 0 {
		t.Error("first count scan must read the file")
	}
	var b2 metrics.Breakdown
	rows2 := collect(t, tbl, ScanSpec{Needed: nil, B: &b2})
	if len(rows2) != 2500 {
		t.Fatalf("second count scan returned %d rows", len(rows2))
	}
	if b2.BytesRead != 0 {
		t.Errorf("second count scan read %d bytes, want 0 (metadata)", b2.BytesRead)
	}
}

func TestTinyBudgetsStillCorrect(t *testing.T) {
	path, ref := genCSV(t, 2000)
	tbl := newTable(t, path, Options{
		ChunkRows: 64, EnablePosMap: true, EnableCache: true,
		PosMapBudget: 2048, CacheBudget: 2048,
	})
	needed := []int{0, 1, 2, 3, 4}
	for q := 0; q < 3; q++ {
		got := collect(t, tbl, ScanSpec{Needed: needed})
		checkRows(t, got, ref, needed)
	}
	if st := tbl.Segments()[0].PosMap().Stats(); st.UsedBytes > 2048 {
		t.Errorf("posmap over budget: %+v", st)
	}
	if st := tbl.Segments()[0].Cache().Stats(); st.UsedBytes > 2048 {
		t.Errorf("cache over budget: %+v", st)
	}
}

func TestStatsPopulatedOnlyForTouchedAttrs(t *testing.T) {
	path, _ := genCSV(t, 1000)
	tbl := newTable(t, path, InSituOptions())
	collect(t, tbl, ScanSpec{Needed: []int{0}})
	st := tbl.StatsCollector()
	if !st.Has(0) {
		t.Error("touched attr has no stats")
	}
	for _, a := range []int{1, 2, 3, 4} {
		if st.Has(a) {
			t.Errorf("untouched attr %d has stats", a)
		}
	}
	collect(t, tbl, ScanSpec{Needed: []int{2}})
	if !st.Has(2) {
		t.Error("stats did not grow adaptively")
	}
	// Min/max come from the sampled rows (every StatsSampleEvery-th), so the
	// max can trail the true max by up to one stride.
	snap, _ := st.Snapshot(0)
	if snap.Min.I != 0 || snap.Max.I < 999-int64(DefaultStatsSampleEvery) {
		t.Errorf("stats min/max=%v/%v", snap.Min, snap.Max)
	}
}

func TestAccessCountsAndQueries(t *testing.T) {
	path, _ := genCSV(t, 100)
	tbl := newTable(t, path, InSituOptions())
	collect(t, tbl, ScanSpec{Needed: []int{0, 2}})
	collect(t, tbl, ScanSpec{Needed: []int{2}})
	ac := tbl.Segments()[0].AccessCounts()
	if ac[0] != 1 || ac[2] != 2 || ac[1] != 0 {
		t.Errorf("accessCounts=%v", ac)
	}
	if tbl.Segments()[0].Queries() != 2 {
		t.Errorf("queries=%d", tbl.Segments()[0].Queries())
	}
}

func TestMalformedRowsBecomeNulls(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.csv")
	content := "1,one,0.5,1,true\nnotanint,two,xx,2,false\n3,three\n4,four,2.0,4,true,EXTRA\n"
	os.WriteFile(path, []byte(content), 0o644)
	tbl := newTable(t, path, InSituOptions())
	got := collect(t, tbl, ScanSpec{Needed: []int{0, 1, 2, 3, 4}})
	if len(got) != 4 {
		t.Fatalf("rows=%d", len(got))
	}
	if !got[1][0].IsNull() || !got[1][2].IsNull() {
		t.Errorf("malformed fields not null: %v", got[1])
	}
	if got[1][1].S != "two" {
		t.Errorf("good field lost: %v", got[1])
	}
	if !got[2][2].IsNull() || !got[2][4].IsNull() {
		t.Errorf("short row fields not null: %v", got[2])
	}
	if got[3][0].I != 4 || got[3][1].S != "four" {
		t.Errorf("long row mangled: %v", got[3])
	}
}

func TestEarlyCloseThenRescan(t *testing.T) {
	path, ref := genCSV(t, 3000)
	tbl := newTable(t, path, Options{ChunkRows: 128, EnablePosMap: true, EnableCache: true})
	// Read only a few rows (simulating LIMIT), then close.
	sc, err := tbl.NewScan(ScanSpec{Needed: []int{0}, B: &metrics.Breakdown{}})
	if err != nil {
		t.Fatal(err)
	}
	rc := rowsOf(sc)
	for i := 0; i < 5; i++ {
		if _, ok, err := rc.Next(); !ok || err != nil {
			t.Fatalf("next %d: ok=%v err=%v", i, ok, err)
		}
	}
	sc.Close()
	if tbl.RowCount() != -1 {
		t.Errorf("partial scan learned rowCount=%d", tbl.RowCount())
	}
	// Full rescan must be complete and correct.
	got := collect(t, tbl, ScanSpec{Needed: []int{0}})
	checkRows(t, got, ref, []int{0})
	if tbl.RowCount() != 3000 {
		t.Errorf("rowCount=%d", tbl.RowCount())
	}
}

func TestRefreshAppend(t *testing.T) {
	path, ref := genCSV(t, 1000)
	tbl := newTable(t, path, Options{ChunkRows: 128, EnablePosMap: true, EnableCache: true})
	collect(t, tbl, ScanSpec{Needed: []int{0, 1}})

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("9001,appended,1.5,3,true\n9002,appended2,2.5,4,false\n")
	f.Close()

	change, err := tbl.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if change.String() != "appended" {
		t.Fatalf("change=%v", change)
	}
	got := collect(t, tbl, ScanSpec{Needed: []int{0, 1}})
	if len(got) != 1002 {
		t.Fatalf("rows after append=%d", len(got))
	}
	if got[1000][0].I != 9001 || got[1001][1].S != "appended2" {
		t.Errorf("appended rows wrong: %v %v", got[1000], got[1001])
	}
	checkRows(t, got[:1000], ref, []int{0, 1})
}

func TestRefreshRewrite(t *testing.T) {
	path, _ := genCSV(t, 500)
	tbl := newTable(t, path, InSituOptions())
	collect(t, tbl, ScanSpec{Needed: []int{0, 1, 2, 3, 4}})
	if tbl.Segments()[0].Cache().Stats().Fragments == 0 {
		t.Fatal("precondition: cache empty")
	}

	os.WriteFile(path, []byte("7,seven,0.7,1,true\n8,eight,0.8,2,false\n"), 0o644)
	change, err := tbl.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if change.String() != "rewritten" {
		t.Fatalf("change=%v", change)
	}
	if tbl.Segments()[0].Cache().Stats().Fragments != 0 || tbl.Segments()[0].PosMap().Stats().Grains != 0 {
		t.Error("structures not cleared on rewrite")
	}
	got := collect(t, tbl, ScanSpec{Needed: []int{0, 1}})
	if len(got) != 2 || got[0][0].I != 7 || got[1][1].S != "eight" {
		t.Errorf("rows after rewrite: %v", got)
	}
}

func TestRefreshUnchangedAndMissing(t *testing.T) {
	path, _ := genCSV(t, 10)
	tbl := newTable(t, path, InSituOptions())
	if ch, err := tbl.Refresh(); err != nil || ch.String() != "unchanged" {
		t.Fatalf("ch=%v err=%v", ch, err)
	}
	os.Remove(path)
	if _, err := tbl.Refresh(); err == nil {
		t.Error("missing file not reported")
	}
}

func TestToggleComponents(t *testing.T) {
	path, ref := genCSV(t, 800)
	tbl := newTable(t, path, InSituOptions())
	tbl.SetEnabled(false, false, false)
	var b metrics.Breakdown
	got := collect(t, tbl, ScanSpec{Needed: []int{0, 2}, B: &b})
	checkRows(t, got, ref, []int{0, 2})
	if tbl.Segments()[0].PosMap().Stats().Inserts != 0 || tbl.Segments()[0].Cache().Stats().Inserts != 0 {
		t.Error("disabled components were populated")
	}
	tbl.SetEnabled(true, true, true)
	collect(t, tbl, ScanSpec{Needed: []int{0, 2}})
	if tbl.Segments()[0].PosMap().Stats().Inserts == 0 || tbl.Segments()[0].Cache().Stats().Inserts == 0 {
		t.Error("re-enabled components not populated")
	}
}

func TestSetBudgetsEvict(t *testing.T) {
	path, _ := genCSV(t, 2000)
	tbl := newTable(t, path, InSituOptions())
	collect(t, tbl, ScanSpec{Needed: []int{0, 1, 2, 3, 4}})
	used := tbl.Segments()[0].Cache().Stats().UsedBytes
	if used == 0 {
		t.Fatal("no cache use")
	}
	tbl.SetBudgets(100, 100)
	if tbl.Segments()[0].Cache().Stats().UsedBytes > 100 {
		t.Error("cache not evicted after budget shrink")
	}
	if tbl.Segments()[0].PosMap().Stats().UsedBytes > 100 {
		t.Error("posmap not evicted after budget shrink")
	}
}

func TestNewScanValidation(t *testing.T) {
	path, _ := genCSV(t, 10)
	tbl := newTable(t, path, InSituOptions())
	if _, err := tbl.NewScan(ScanSpec{Needed: []int{99}, B: &metrics.Breakdown{}}); err == nil {
		t.Error("out-of-range attr accepted")
	}
	if _, err := tbl.NewScan(ScanSpec{Needed: []int{0, 0}, B: &metrics.Breakdown{}}); err == nil {
		t.Error("duplicate attr accepted")
	}
	if _, err := tbl.NewScan(ScanSpec{Needed: []int{0}, FilterAttrs: []int{1}, B: &metrics.Breakdown{}}); err == nil {
		t.Error("filter attr outside needed accepted")
	}
	if _, err := tbl.NewScan(ScanSpec{Needed: []int{0}}); err == nil {
		t.Error("nil breakdown accepted")
	}
	if _, err := NewTable("/nonexistent/file.csv", testSchema, InSituOptions()); err == nil {
		t.Error("missing file accepted")
	}
}

func TestConcurrentScans(t *testing.T) {
	path, ref := genCSV(t, 2000)
	tbl := newTable(t, path, Options{ChunkRows: 128, EnablePosMap: true, EnableCache: true, EnableStats: true, CacheBudget: 64 << 10, PosMapBudget: 64 << 10})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			needed := [][]int{{0}, {1}, {2}, {0, 3}, {4}, {2, 4}, {0, 1, 2}, {3}}[g]
			var b metrics.Breakdown
			sc, err := tbl.NewScan(ScanSpec{Needed: needed, B: &b})
			if err != nil {
				errs <- err
				return
			}
			rc := rowsOf(sc)
			defer sc.Close()
			n := 0
			for {
				row, ok, err := rc.Next()
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					break
				}
				for i, a := range needed {
					if !value.Equal(row[i], ref[n][a]) {
						errs <- fmt.Errorf("goroutine %d row %d attr %d mismatch", g, n, a)
						return
					}
				}
				n++
			}
			if n != 2000 {
				errs <- fmt.Errorf("goroutine %d saw %d rows", g, n)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEquivalenceQuick is the central property test: for random files and
// random scan specs, every configuration of the adaptive components returns
// exactly the rows of a naive reference implementation, on first and
// repeated scans.
func TestEquivalenceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	kinds := []value.Kind{value.KindInt, value.KindText, value.KindFloat, value.KindInt, value.KindText, value.KindInt}
	cols := make([]schema.Column, len(kinds))
	for i, k := range kinds {
		cols[i] = schema.Column{Name: fmt.Sprintf("c%d", i), Kind: k}
	}
	sch := schema.MustNew(cols)

	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		rows := rng.Intn(900) + 20
		var sb strings.Builder
		ref := make([][]value.Value, rows)
		for r := 0; r < rows; r++ {
			vals := make([]value.Value, len(kinds))
			parts := make([]string, len(kinds))
			for cIdx, k := range kinds {
				if rng.Intn(20) == 0 {
					vals[cIdx] = value.Null()
					parts[cIdx] = ""
					continue
				}
				switch k {
				case value.KindInt:
					n := int64(rng.Intn(1000) - 500)
					vals[cIdx] = value.Int(n)
					parts[cIdx] = fmt.Sprint(n)
				case value.KindFloat:
					f := float64(rng.Intn(10000)) / 16
					vals[cIdx] = value.Float(f)
					parts[cIdx] = fmt.Sprintf("%g", f)
				default:
					s := strings.Repeat("x", rng.Intn(12)) + fmt.Sprint(rng.Intn(100))
					vals[cIdx] = value.Text(s)
					parts[cIdx] = s
				}
			}
			ref[r] = vals
			sb.WriteString(strings.Join(parts, ","))
			sb.WriteByte('\n')
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "rand.csv")
		os.WriteFile(path, []byte(sb.String()), 0o644)

		configs := []Options{
			{ChunkRows: 64},
			{ChunkRows: 64, EnablePosMap: true},
			{ChunkRows: 64, EnableCache: true},
			{ChunkRows: 64, EnablePosMap: true, EnableCache: true, EnableStats: true},
			{ChunkRows: 64, EnablePosMap: true, EnableCache: true, PosMapBudget: 1024, CacheBudget: 1024},
			{ChunkRows: 64, EnablePosMap: true, MapEveryNth: 3},
		}
		for ci, opts := range configs {
			tbl, err := NewTable(path, sch, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Random needed set.
			nNeed := rng.Intn(len(kinds)) + 1
			perm := rng.Perm(len(kinds))[:nNeed]
			filterAttr := perm[rng.Intn(len(perm))]
			threshold := int64(rng.Intn(1000) - 500)
			filterSlot := -1
			for i, a := range perm {
				if a == filterAttr {
					filterSlot = i
				}
			}
			useFilter := sch.Col(filterAttr).Kind == value.KindInt && rng.Intn(2) == 0
			spec := ScanSpec{Needed: perm}
			if useFilter {
				spec.FilterAttrs = []int{filterAttr}
				spec.Filter = rowFilter(func(row []value.Value) (bool, error) {
					v := row[filterSlot]
					return !v.IsNull() && v.I < threshold, nil
				})
			}
			var want [][]value.Value
			for _, rv := range ref {
				if !useFilter || (!rv[filterAttr].IsNull() && rv[filterAttr].I < threshold) {
					want = append(want, rv)
				}
			}
			for pass := 0; pass < 3; pass++ {
				spec.B = &metrics.Breakdown{}
				got := collect(t, tbl, spec)
				if len(got) != len(want) {
					t.Fatalf("trial %d config %d pass %d: %d rows, want %d", trial, ci, pass, len(got), len(want))
				}
				for r := range got {
					for i, a := range perm {
						if !value.Equal(got[r][i], want[r][a]) {
							t.Fatalf("trial %d config %d pass %d row %d attr %d: got %v want %v",
								trial, ci, pass, r, a, got[r][i], want[r][a])
						}
					}
				}
			}
		}
	}
}

func TestWideFileMappedPathSkipsTokenizing(t *testing.T) {
	// 30 attributes, query touches only attr 2: after the first scan the
	// mapped path should do zero tokenizing (positions are exact jumps).
	// Note the paper's positional map is a CPU saving, not an I/O saving:
	// the union byte range over a chunk's rows still spans nearly the whole
	// chunk for row-major files; it is the cache that eliminates I/O.
	const rows, attrs = 800, 30
	var sb strings.Builder
	cols := make([]schema.Column, attrs)
	for a := 0; a < attrs; a++ {
		cols[a] = schema.Column{Name: fmt.Sprintf("a%d", a), Kind: value.KindInt}
	}
	sch := schema.MustNew(cols)
	for r := 0; r < rows; r++ {
		parts := make([]string, attrs)
		for a := 0; a < attrs; a++ {
			parts[a] = fmt.Sprintf("%d", r*attrs+a)
		}
		sb.WriteString(strings.Join(parts, ","))
		sb.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "wide.csv")
	os.WriteFile(path, []byte(sb.String()), 0o644)
	tbl, err := NewTable(path, sch, Options{ChunkRows: 128, EnablePosMap: true})
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 metrics.Breakdown
	sc1, _ := tbl.NewScan(ScanSpec{Needed: []int{2}, B: &b1})
	rc1 := rowsOf(sc1)
	for {
		if _, ok, err := rc1.Next(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	sc1.Close()
	sc2, _ := tbl.NewScan(ScanSpec{Needed: []int{2}, B: &b2})
	rc2 := rowsOf(sc2)
	n := 0
	for {
		row, ok, err := rc2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if want := int64(n*attrs + 2); row[0].I != want {
			t.Fatalf("row %d = %v, want %d", n, row[0], want)
		}
		n++
	}
	sc2.Close()
	if n != rows {
		t.Fatalf("rows=%d", n)
	}
	if b2.FieldsTokenized != 0 {
		t.Errorf("mapped path tokenized %d fields, want 0", b2.FieldsTokenized)
	}
	// Attribute 2 is located by delimiters 1 and 2: two map jumps per row.
	if b2.MapJumpFields != 2*rows {
		t.Errorf("map jumps=%d, want %d", b2.MapJumpFields, 2*rows)
	}
	if b2.BytesRead > b1.BytesRead {
		t.Errorf("mapped path read %d bytes > first scan %d", b2.BytesRead, b1.BytesRead)
	}
}

func TestTokenizeDelimOption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pipe.csv")
	os.WriteFile(path, []byte("1|one|1.5|2|true\n2|two|2.5|3|false\n"), 0o644)
	tbl, err := NewTable(path, testSchema, Options{Delim: '|'})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, tbl, ScanSpec{Needed: []int{0, 1}})
	if len(got) != 2 || got[0][1].S != "one" || got[1][0].I != 2 {
		t.Errorf("pipe-delimited rows: %v", got)
	}
}

func TestChargeSubtractsIO(t *testing.T) {
	path, _ := genCSV(t, 5000)
	tbl := newTable(t, path, BaselineOptions())
	var b metrics.Breakdown
	collect(t, tbl, ScanSpec{Needed: []int{0, 1, 2, 3, 4}, B: &b})
	if b.Times[metrics.IO] <= 0 {
		t.Error("no IO time")
	}
	if b.Times[metrics.Tokenizing] < 0 || b.Times[metrics.Convert] <= 0 {
		t.Errorf("breakdown: %v", b.Times)
	}
	if b.RowsScanned != 5000 {
		t.Errorf("rowsScanned=%d", b.RowsScanned)
	}
	if b.BytesRead < rawMinSize(t, path) {
		t.Errorf("bytesRead=%d", b.BytesRead)
	}
}

func rawMinSize(t *testing.T, path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestStatsSeenOncePerChunk(t *testing.T) {
	path, _ := genCSV(t, 1000)
	tbl := newTable(t, path, InSituOptions())
	collect(t, tbl, ScanSpec{Needed: []int{0}})
	snap1, _ := tbl.StatsCollector().Snapshot(0)
	collect(t, tbl, ScanSpec{Needed: []int{0}})
	snap2, _ := tbl.StatsCollector().Snapshot(0)
	if snap2.Count != snap1.Count {
		t.Errorf("stats double counted: %d then %d", snap1.Count, snap2.Count)
	}
}

// rawfile import is exercised indirectly; keep the compiler honest about it.
var _ = rawfile.DefaultBlockSize

// planCSV writes a ten-int-attribute file whose values are negative as often
// as not (a '-' after every other separator); with ragged, every seventh row
// of the even 64-row chunks stops early, after 1 to 9 fields, and every
// thirteenth row has empty fields.
func planCSV(t *testing.T, ragged bool) (string, *schema.Schema) {
	t.Helper()
	cols := make([]schema.Column, 10)
	for a := range cols {
		cols[a] = schema.Column{Name: fmt.Sprintf("a%d", a), Kind: value.KindInt}
	}
	var sb strings.Builder
	for r := 0; r < 300; r++ {
		n := 10
		if ragged && r%7 == 3 && r/64%2 == 0 {
			n = 1 + r%9
		}
		for a := 0; a < n; a++ {
			if a > 0 {
				sb.WriteByte(',')
			}
			if ragged && r%13 == 5 && a%4 == 1 {
				continue
			}
			fmt.Fprintf(&sb, "%d", (r*37+a*101)%2000-1000)
		}
		sb.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "plan.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, schema.MustNew(cols)
}

// planReference derives what a scan must produce from the file's bytes
// alone: each row's start offset and the offset of every delimiter (the
// d-th separator, or the row end for fields the row lacks).
func planReference(t *testing.T, path string) (starts []int64, delims [][]int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(0)
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if line == "" {
			continue
		}
		row := strings.TrimSuffix(line, "\n")
		ends := make([]int64, 10)
		p, d := 0, 0
		for ; d < 10; d++ {
			i := strings.IndexByte(row[p:], ',')
			if i < 0 {
				break
			}
			ends[d] = off + int64(p+i)
			p += i + 1
		}
		for ; d < 10; d++ {
			ends[d] = off + int64(len(row))
		}
		starts = append(starts, off)
		delims = append(delims, ends)
		off += int64(len(line))
	}
	return starts, delims
}

// TestTokenizePlanGolden pins the cold tokenizing plan on needed sets at the
// first, the last, the middle and both ends of a row — cold, warm over a
// map thinned to every third delimiter (so runs start from a view
// position), and over ragged rows. Values and learned positions must match
// the file; the values, the whole positional map and the tokenizing
// counters must match a digest recorded from the implementation that
// tokenized each gap with its own call.
func TestTokenizePlanGolden(t *testing.T) {
	golden := map[string]string{}
	for _, mode := range []string{"cold", "warm", "ragged"} {
		path, sch := planCSV(t, mode == "ragged")
		starts, delims := planReference(t, path)
		for _, needed := range [][]int{{0}, {9}, {3, 6}, {0, 9}} {
			label := fmt.Sprintf("%s %v", mode, needed)
			opts := Options{ChunkRows: 64, EnablePosMap: true, Parallelism: 1}
			if mode == "warm" {
				opts.MapEveryNth = 3
			}
			tbl, err := NewTable(path, sch, opts)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "warm" {
				collect(t, tbl, ScanSpec{Needed: []int{8}})
			}
			var b metrics.Breakdown
			rows := collect(t, tbl, ScanSpec{Needed: needed, B: &b})
			if len(rows) != len(starts) {
				t.Fatalf("%s: %d rows, file has %d", label, len(rows), len(starts))
			}
			data, _ := os.ReadFile(path)
			h := fnv.New64a()
			for r, row := range rows {
				for i, a := range needed {
					lo := starts[r]
					if a > 0 {
						lo = delims[r][a-1] + 1
					}
					want := value.Null()
					if hi := delims[r][a]; hi > lo {
						want, _ = value.Parse(data[lo:hi], value.KindInt)
					}
					if row[i] != want {
						t.Fatalf("%s: row %d attr %d = %v, file says %v", label, r, a, row[i], want)
					}
					fmt.Fprint(h, row[i], ";")
				}
			}
			values := h.Sum64()
			h.Reset()
			pm := tbl.Segments()[0].PosMap()
			for c := 0; c*64 < len(starts); c++ {
				v, ok := pm.ViewChunk(c)
				if !ok {
					fmt.Fprint(h, "chunk ", c, " unmapped;")
					continue
				}
				fmt.Fprint(h, "chunk ", c, v.Delims(), ";")
				for r := 0; r < v.Rows(); r++ {
					for _, d := range v.Delims() {
						p, _ := v.Pos(r, d)
						want := starts[c*64+r]
						if d >= 0 {
							want = delims[c*64+r][d]
						}
						if p != want {
							t.Fatalf("%s: chunk %d row %d delimiter %d learned at %d, file says %d", label, c, r, d, p, want)
						}
						fmt.Fprint(h, p, ",")
					}
				}
			}
			golden[label] = fmt.Sprintf("tokenized=%d jump=%d near=%d malformed=%d converted=%d values=%016x map=%016x",
				b.FieldsTokenized, b.MapJumpFields, b.MapNearFields, b.MalformedFields, b.FieldsConverted, values, h.Sum64())
		}
	}
	want := map[string]string{
		"cold [0 9]":   "tokenized=3000 jump=0 near=0 malformed=0 converted=600 values=534a1b1a22779bba map=b098d19536a4c4b1",
		"cold [0]":     "tokenized=300 jump=0 near=0 malformed=0 converted=300 values=8eb65e4c10886744 map=17156f39be0cee20",
		"cold [3 6]":   "tokenized=2100 jump=0 near=0 malformed=0 converted=600 values=bdbd6f595a82a202 map=85e9f7efaa51983f",
		"cold [9]":     "tokenized=3000 jump=0 near=0 malformed=0 converted=300 values=856722f7946f87bb map=b098d19536a4c4b1",
		"ragged [0 9]": "tokenized=2877 jump=0 near=0 malformed=24 converted=600 values=104011c149690d50 map=afd7246b04ede1a9",
		"ragged [0]":   "tokenized=300 jump=0 near=0 malformed=0 converted=300 values=8eb65e4c10886744 map=8194ce2243db8698",
		"ragged [3 6]": "tokenized=2041 jump=0 near=0 malformed=16 converted=600 values=4c370322973f6502 map=19a01edbad5532cf",
		"ragged [9]":   "tokenized=2877 jump=0 near=0 malformed=24 converted=300 values=f837ecce884360c7 map=afd7246b04ede1a9",
		"warm [0 9]":   "tokenized=300 jump=600 near=0 malformed=0 converted=600 values=534a1b1a22779bba map=1fc524e8af07b259",
		"warm [0]":     "tokenized=0 jump=300 near=0 malformed=0 converted=300 values=8eb65e4c10886744 map=33b6fb42c76ac940",
		"warm [3 6]":   "tokenized=1200 jump=600 near=300 malformed=0 converted=600 values=bdbd6f595a82a202 map=a8dd4de83e112231",
		"warm [9]":     "tokenized=300 jump=300 near=0 malformed=0 converted=300 values=856722f7946f87bb map=1fc524e8af07b259",
	}
	for label, got := range golden {
		if got != want[label] {
			t.Errorf("%q: %q", label, got)
		}
	}
}
