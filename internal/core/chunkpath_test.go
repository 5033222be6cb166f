package core

import (
	"fmt"
	"os"
	"testing"

	"nodb/internal/metrics"
)

// A chunk whose every needed attribute is cached samples statistics like any
// other chunk: statistics switched on after the cache is warm (ALTER TABLE …
// SET (stats = on)) sample every chunk once, from the cache fragments,
// whether one or all of the query's attributes were cached.
func TestFullyCachedChunkSamplesStats(t *testing.T) {
	const rows, chunkRows = 4000, 256
	path, _ := genCSV(t, rows)
	// Every chunk contributes ceil(chunk rows / StatsSampleEvery) values.
	want := int64(0)
	for lo := 0; lo < rows; lo += chunkRows {
		n := min(chunkRows, rows-lo)
		want += int64((n + DefaultStatsSampleEvery - 1) / DefaultStatsSampleEvery)
	}
	for _, warm := range [][]int{{0}, {0, 2}} {
		t.Run(fmt.Sprint(warm), func(t *testing.T) {
			tbl := newTable(t, path, Options{ChunkRows: chunkRows, EnablePosMap: true, EnableCache: true})
			collect(t, tbl, ScanSpec{Needed: warm})
			tbl.SetEnabled(true, true, true)
			for pass := 0; pass < 2; pass++ {
				collect(t, tbl, ScanSpec{Needed: []int{0, 2}})
				for _, a := range []int{0, 2} {
					snap, _ := tbl.StatsCollector().Snapshot(a)
					if snap.Count != want {
						t.Errorf("pass %d: attr %d sampled %d values, want %d", pass, a, snap.Count, want)
					}
				}
			}
		})
	}
}

// Every chunk is served from the cache, a mapped byte range, or the loaded
// chunk, alone or mixed. Whatever the mix, each scan accounts for every byte
// of the file once (read or skipped), and MapJumpFields counts one jump per
// row for each needed delimiter, other than the row start, taken from the
// positional map.
func TestChunkAccountingIdentities(t *testing.T) {
	const rows = 4000
	path, _ := genCSV(t, rows)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// jumps[cache] is the number of mapped non-row-start needed delimiters
	// per row; tokenizes[cache] whether any chunk is loaded and tokenized.
	steps := []struct {
		needed    []int
		kind      [2]string // the chunks' serving mix, cache off / on
		jumps     [2]int64
		tokenizes [2]bool
	}{
		{[]int{1}, [2]string{"cold", "cold"}, [2]int64{0, 0}, [2]bool{true, true}},
		{[]int{1, 3}, [2]string{"mapped + re-tokenizing", "cached + re-tokenizing"}, [2]int64{2, 0}, [2]bool{true, true}},
		{[]int{1, 3}, [2]string{"mapped range", "all cached"}, [2]int64{4, 0}, [2]bool{false, false}},
		{[]int{0, 3}, [2]string{"mapped range", "cached + mapped range"}, [2]int64{3, 1}, [2]bool{false, false}},
		{[]int{4}, [2]string{"mapped + re-tokenizing", "mapped + re-tokenizing"}, [2]int64{1, 1}, [2]bool{true, true}},
	}
	for ci, cache := range []bool{false, true} {
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("cache=%v/par=%d", cache, par), func(t *testing.T) {
				tbl := newTable(t, path, Options{ChunkRows: 256, EnablePosMap: true, EnableCache: cache, Parallelism: par})
				for si, st := range steps {
					var b metrics.Breakdown
					if got := collect(t, tbl, ScanSpec{Needed: st.needed, B: &b}); len(got) != rows {
						t.Fatalf("step %d: %d rows, want %d", si, len(got), rows)
					}
					if b.BytesRead+b.BytesSkipped != fi.Size() {
						t.Errorf("step %d (%s): read %d + skipped %d != file size %d",
							si, st.kind[ci], b.BytesRead, b.BytesSkipped, fi.Size())
					}
					if want := st.jumps[ci] * rows; b.MapJumpFields != want {
						t.Errorf("step %d (%s): map jumps %d, want %d", si, st.kind[ci], b.MapJumpFields, want)
					}
					if (b.FieldsTokenized > 0) != st.tokenizes[ci] {
						t.Errorf("step %d (%s): tokenized %d fields", si, st.kind[ci], b.FieldsTokenized)
					}
				}
			})
		}
	}
}
