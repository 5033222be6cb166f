package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/metrics"
	"nodb/internal/schema"
	"nodb/internal/value"
)

// intSchema builds an n-column all-int schema.
func intSchema(t *testing.T, n int) *schema.Schema {
	t.Helper()
	cols := make([]schema.Column, n)
	for a := 0; a < n; a++ {
		cols[a] = schema.Column{Name: fmt.Sprintf("a%d", a), Kind: value.KindInt}
	}
	return schema.MustNew(cols)
}

// parOptions returns insitu-style options with the given parallelism and a
// small chunk size so files span many chunks.
func parOptions(par int) Options {
	return Options{
		ChunkRows:    64,
		EnablePosMap: true,
		EnableCache:  true,
		EnableStats:  true,
		Parallelism:  par,
	}
}

// scanCounters extracts the deterministic counters of a breakdown (the time
// categories vary run to run; the work counters must not).
func scanCounters(b *metrics.Breakdown) [7]int64 {
	return [7]int64{
		b.BytesRead, b.RowsScanned, b.FieldsTokenized, b.FieldsConverted,
		b.CacheHitFields, b.MapJumpFields, b.MapNearFields,
	}
}

// TestParallelEquivalence is the central acceptance test for the pipeline:
// for Parallelism in {1, 2, 8}, every pass (cold, warm posmap, warm cache)
// must return exactly the sequential scan's rows in the same order, perform
// the same amount of raw work, and leave the positional map and cache with
// identical contents.
func TestParallelEquivalence(t *testing.T) {
	path, ref := genCSV(t, 3000)
	needed := []int{0, 2, 4}

	type passState struct {
		rows     [][]value.Value
		counters [7]int64
		pmStats  [3]int64 // used bytes, grains, inserts
		cStats   [3]int64 // used bytes, fragments, inserts
	}
	runPasses := func(par int) []passState {
		tbl := newTable(t, path, parOptions(par))
		var out []passState
		for pass := 0; pass < 3; pass++ {
			var b metrics.Breakdown
			rows := collect(t, tbl, ScanSpec{Needed: needed, B: &b})
			pm := tbl.Segments()[0].PosMap().Stats()
			cs := tbl.Segments()[0].Cache().Stats()
			out = append(out, passState{
				rows:     rows,
				counters: scanCounters(&b),
				pmStats:  [3]int64{pm.UsedBytes, int64(pm.Grains), pm.Inserts},
				cStats:   [3]int64{cs.UsedBytes, int64(cs.Fragments), cs.Inserts},
			})
		}
		return out
	}

	seq := runPasses(1)
	checkRows(t, seq[0].rows, ref, needed)
	for _, par := range []int{2, 8} {
		got := runPasses(par)
		for pass := range got {
			if len(got[pass].rows) != len(seq[pass].rows) {
				t.Fatalf("par=%d pass %d: %d rows, want %d", par, pass, len(got[pass].rows), len(seq[pass].rows))
			}
			for r := range got[pass].rows {
				for i := range needed {
					if !value.Equal(got[pass].rows[r][i], seq[pass].rows[r][i]) {
						t.Fatalf("par=%d pass %d row %d col %d: got %v want %v",
							par, pass, r, i, got[pass].rows[r][i], seq[pass].rows[r][i])
					}
				}
			}
			if got[pass].counters != seq[pass].counters {
				t.Errorf("par=%d pass %d counters=%v, sequential=%v", par, pass, got[pass].counters, seq[pass].counters)
			}
			if got[pass].pmStats != seq[pass].pmStats {
				t.Errorf("par=%d pass %d posmap=%v, sequential=%v", par, pass, got[pass].pmStats, seq[pass].pmStats)
			}
			if got[pass].cStats != seq[pass].cStats {
				t.Errorf("par=%d pass %d cache=%v, sequential=%v", par, pass, got[pass].cStats, seq[pass].cStats)
			}
		}
	}
}

// TestParallelEquivalenceFiltered repeats the equivalence check with a
// pushed-down predicate and selective tuple formation in play.
func TestParallelEquivalenceFiltered(t *testing.T) {
	path, ref := genCSV(t, 2000)
	needed := []int{0, 1, 3}
	spec := func(b *metrics.Breakdown) ScanSpec {
		return ScanSpec{
			Needed:      needed,
			FilterAttrs: []int{3},
			Filter: rowFilter(func(row []value.Value) (bool, error) {
				return row[2].I == 5, nil // grp == 5
			}),
			B: b,
		}
	}
	var want [][]value.Value
	for _, r := range ref {
		if r[3].I == 5 {
			want = append(want, r)
		}
	}
	for _, par := range []int{1, 2, 8} {
		tbl := newTable(t, path, parOptions(par))
		for pass := 0; pass < 3; pass++ {
			var b metrics.Breakdown
			got := collect(t, tbl, spec(&b))
			if len(got) != len(want) {
				t.Fatalf("par=%d pass %d: %d rows, want %d", par, pass, len(got), len(want))
			}
			checkRows(t, got, want, needed)
		}
	}
}

// TestParallelEarlyCloseDoesNotPublish mirrors TestEarlyCloseThenRescan for
// the pipeline: even though the splitter reads ahead, an early-closed scan
// must not publish a row count (or any structure state) beyond what the
// consumer actually received.
func TestParallelEarlyCloseDoesNotPublish(t *testing.T) {
	path, ref := genCSV(t, 3000)
	opts := parOptions(4)
	opts.ChunkRows = 128
	tbl := newTable(t, path, opts)
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
		t.Errorf("partial parallel scan learned rowCount=%d", tbl.RowCount())
	}
	got := collect(t, tbl, ScanSpec{Needed: []int{0}})
	checkRows(t, got, ref, []int{0})
	if tbl.RowCount() != 3000 {
		t.Errorf("rowCount=%d", tbl.RowCount())
	}
}

// TestParallelCountStar checks the zero-attribute metadata path under the
// pipeline: first scan reads the file, second is answered from metadata.
func TestParallelCountStar(t *testing.T) {
	path, _ := genCSV(t, 2500)
	tbl := newTable(t, path, parOptions(4))
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

// TestParallelTinyBudgets stresses eviction under the pipeline: rows must
// stay correct across repeated scans while both budgets thrash.
func TestParallelTinyBudgets(t *testing.T) {
	path, ref := genCSV(t, 2000)
	opts := parOptions(4)
	opts.PosMapBudget = 2048
	opts.CacheBudget = 2048
	tbl := newTable(t, path, opts)
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

// TestParallelMalformedRows checks the NULL-for-malformed behavior through
// the pipeline.
func TestParallelMalformedRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.csv")
	content := "1,one,0.5,1,true\nnotanint,two,xx,2,false\n3,three\n4,four,2.0,4,true,EXTRA\n"
	os.WriteFile(path, []byte(content), 0o644)
	opts := parOptions(4)
	tbl := newTable(t, path, opts)
	got := collect(t, tbl, ScanSpec{Needed: []int{0, 1, 2, 3, 4}})
	if len(got) != 4 {
		t.Fatalf("rows=%d", len(got))
	}
	if !got[1][0].IsNull() || !got[1][2].IsNull() {
		t.Errorf("malformed fields not null: %v", got[1])
	}
	if got[3][0].I != 4 || got[3][1].S != "four" {
		t.Errorf("long row mangled: %v", got[3])
	}
}

// TestNextBatch checks the columnar protocol against Next on the same data,
// across parallelism settings and filter configurations.
func TestNextBatch(t *testing.T) {
	path, ref := genCSV(t, 1500)
	needed := []int{0, 3}
	for _, par := range []int{1, 4} {
		for _, filtered := range []bool{false, true} {
			name := fmt.Sprintf("par%d-filter%v", par, filtered)
			t.Run(name, func(t *testing.T) {
				tbl := newTable(t, path, parOptions(par))
				spec := ScanSpec{Needed: needed, B: &metrics.Breakdown{}}
				if filtered {
					spec.FilterAttrs = []int{3}
					spec.Filter = rowFilter(func(row []value.Value) (bool, error) { return row[1].I%2 == 0, nil })
				}
				sc, err := tbl.NewScan(spec)
				if err != nil {
					t.Fatal(err)
				}
				defer sc.Close()
				var got [][]value.Value
				for {
					b, ok, err := sc.NextBatch()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					for _, r := range b.Sel {
						row := make([]value.Value, len(b.Cols))
						for i, col := range b.Cols {
							row[i] = col[r]
						}
						got = append(got, row)
					}
				}
				var want [][]value.Value
				for _, r := range ref {
					if !filtered || r[3].I%2 == 0 {
						want = append(want, r)
					}
				}
				checkRows(t, got, want, needed)
			})
		}
	}
}

// TestNextBatchCountOnly drains a zero-attribute scan through the batch
// protocol; the selection vector alone carries the row multiplicity.
func TestNextBatchCountOnly(t *testing.T) {
	path, _ := genCSV(t, 2100)
	tbl := newTable(t, path, parOptions(4))
	for pass := 0; pass < 2; pass++ { // pass 1 is served from metadata
		sc, err := tbl.NewScan(ScanSpec{B: &metrics.Breakdown{}})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			b, ok, err := sc.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if len(b.Cols) != 0 {
				t.Fatalf("count batch has %d cols", len(b.Cols))
			}
			n += len(b.Sel)
		}
		sc.Close()
		if n != 2100 {
			t.Fatalf("pass %d: batch count %d, want 2100", pass, n)
		}
	}
}

// TestParallelAppendRefresh checks the pipeline over a file that grows
// between scans (the Updates scenario).
func TestParallelAppendRefresh(t *testing.T) {
	path, ref := genCSV(t, 1000)
	opts := parOptions(4)
	opts.ChunkRows = 128
	tbl := newTable(t, path, opts)
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

// TestParallelWideFile runs the pipeline over a wide schema where only one
// attribute is needed, covering the mapped fast path from pipeline workers.
func TestParallelWideFile(t *testing.T) {
	const rows, attrs = 800, 30
	var sb strings.Builder
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
	sch := intSchema(t, attrs)
	opts := Options{ChunkRows: 128, EnablePosMap: true, Parallelism: 4}
	tbl, err := NewTable(path, sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		var b metrics.Breakdown
		sc, _ := tbl.NewScan(ScanSpec{Needed: []int{2}, B: &b})
		rc := rowsOf(sc)
		n := 0
		for {
			row, ok, err := rc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if want := int64(n*attrs + 2); row[0].I != want {
				t.Fatalf("pass %d row %d = %v, want %d", pass, n, row[0], want)
			}
			n++
		}
		sc.Close()
		if n != rows {
			t.Fatalf("pass %d rows=%d", pass, n)
		}
		if pass == 1 && b.FieldsTokenized != 0 {
			t.Errorf("mapped parallel pass tokenized %d fields, want 0", b.FieldsTokenized)
		}
	}
}
