package core

import (
	"testing"
	"time"

	"nodb/internal/metrics"
	"nodb/internal/value"
)

// TestWindowBound pins the scan's window: behind a slow head chunk, the
// results parked for the ordered commit never exceed K = windowPerWorker ×
// Parallelism, however far the rest of the stream could run ahead, and rows
// and counters still match the inline executor. The single-segment variant
// is one file of 80 chunks; the three-segment one cuts the same rows into
// three files, so the stream crosses two segment boundaries inside the run.
func TestWindowBound(t *testing.T) {
	const chunkRows, rows = 64, 64 * 80
	single, shards, _ := genShardFiles(t, rows, []int{1800, 1700, 1620})
	layouts := []struct {
		name string
		open func(Options) *Table
	}{
		{"one segment", func(o Options) *Table { return newTable(t, single, o) }},
		{"three segments", func(o Options) *Table { return newShardedTable(t, shards, o) }},
	}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			run := func(par int) ([][]value.Value, [7]int64, int) {
				opts := parOptions(par)
				opts.ChunkRows = chunkRows
				var b metrics.Breakdown
				sc, err := l.open(opts).NewScan(ScanSpec{
					Needed:      []int{0, 1},
					FilterAttrs: []int{0},
					// Only chunk 0 is slow: every other chunk finishes while
					// the commit still waits for it.
					Filter: rowFilter(func(row []value.Value) (bool, error) {
						if row[0].I < chunkRows {
							time.Sleep(2 * time.Millisecond)
						}
						return true, nil
					}),
					B: &b,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer sc.Close()
				var got [][]value.Value
				high := 0
				for {
					batch, ok, err := sc.NextBatch()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					high = max(high, pendingLen(sc))
					for _, r := range batch.Sel {
						got = append(got, []value.Value{batch.Cols[0][r], batch.Cols[1][r]})
					}
				}
				return got, scanCounters(&b), high
			}
			want, wantC, _ := run(1)
			got, gotC, high := run(4)
			if k := windowPerWorker * 4; high > k {
				t.Errorf("pending held %d results behind the slow head chunk, window K = %d", high, k)
			}
			sameRows(t, l.name, got, want)
			if gotC != wantC {
				t.Errorf("counters at Parallelism 4 %v, Parallelism 1 %v", gotC, wantC)
			}
		})
	}
}

// pendingLen is how many results wait in the scan's ordered commit.
func pendingLen(sc *Scan) int { return len(sc.st.pending) }

// setWindow overrides the window K of scans opened until the test ends.
func setWindow(t *testing.T, k int) {
	t.Helper()
	prev := testWindow
	testWindow = k
	t.Cleanup(func() { testWindow = prev })
}
