package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"nodb/internal/faultfs"
	"nodb/internal/faults"
	"nodb/internal/metrics"
	"nodb/internal/rawfile"
	"nodb/internal/schema"
	"nodb/internal/value"
)

// The fault-injection suite: every injected failure — transient and
// permanent I/O errors, short reads, mid-scan truncation and mutation,
// panics on a chunk's bytes — must surface as a typed error from the scan,
// leave the adaptive structures holding exactly the committed prefix, and
// never leak pipeline goroutines, at any Parallelism.

// faultCollect drains a scan, returning the rows served before the first
// error (nil error means clean EOF). The scan is closed either way.
func faultCollect(tbl *Table, spec ScanSpec) ([][]value.Value, int64, error) {
	if spec.B == nil {
		spec.B = &metrics.Breakdown{}
	}
	sc, err := tbl.NewScan(spec)
	if err != nil {
		return nil, 0, err
	}
	rc := rowsOf(sc)
	defer sc.Close()
	var out [][]value.Value
	for {
		row, ok, err := rc.Next()
		if err != nil {
			return out, spec.B.IORetries, err
		}
		if !ok {
			return out, spec.B.IORetries, nil
		}
		cp := make([]value.Value, len(row))
		copy(cp, row)
		out = append(out, cp)
	}
}

// noLeaks fails the test if the goroutine count has not returned to its
// start-of-test level (pipeline workers and splitters must all exit).
func noLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

func fastRetries(t *testing.T) {
	t.Helper()
	oldA, oldB := rawfile.RetryAttempts, rawfile.RetryBackoff
	rawfile.RetryBackoff = 10 * time.Microsecond
	t.Cleanup(func() { rawfile.RetryAttempts, rawfile.RetryBackoff = oldA, oldB })
}

func TestTransientRetryRecovers(t *testing.T) {
	noLeaks(t)
	fastRetries(t)
	path, ref := genCSV(t, 2000)
	for _, kind := range []faultfs.Kind{faultfs.TransientErr, faultfs.ShortRead} {
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("kind=%d/par=%d", kind, par), func(t *testing.T) {
				uninstall := faultfs.Install(nil, faultfs.Options{Kind: kind, From: 1000, Times: 2})
				t.Cleanup(uninstall)
				tbl := newTable(t, path, Options{ChunkRows: 256, Parallelism: par})
				needed := []int{0, 1, 2, 3, 4}
				got, retries, err := faultCollect(tbl, ScanSpec{Needed: needed})
				if err != nil {
					t.Fatalf("scan with %d transient faults (budget %d): %v", 2, rawfile.RetryAttempts, err)
				}
				checkRows(t, got, ref, needed)
				if retries == 0 {
					t.Fatal("retries absorbed the fault but IORetries == 0")
				}
			})
		}
	}
}

func TestTransientRetryExhaustion(t *testing.T) {
	noLeaks(t)
	fastRetries(t)
	path, _ := genCSV(t, 2000)
	uninstall := faultfs.Install(nil, faultfs.Options{Kind: faultfs.TransientErr, From: 1000})
	t.Cleanup(uninstall)
	tbl := newTable(t, path, Options{ChunkRows: 256})
	_, retries, err := faultCollect(tbl, ScanSpec{Needed: []int{0}})
	if !errors.Is(err, faults.ErrIO) {
		t.Fatalf("want ErrIO after retry exhaustion, got %v", err)
	}
	if !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("exhausted error should keep its transient class: %v", err)
	}
	if retries < int64(rawfile.RetryAttempts) {
		t.Fatalf("IORetries=%d, want at least the full budget %d", retries, rawfile.RetryAttempts)
	}
}

func TestPermanentErrorDeterministicPrefix(t *testing.T) {
	noLeaks(t)
	path, ref := genCSV(t, 4000)
	st, _ := os.Stat(path)
	from := st.Size() / 2
	needed := []int{0, 1, 2, 3, 4}

	prefix := -1
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			uninstall := faultfs.Install(nil, faultfs.Options{Kind: faultfs.PermanentErr, From: from})
			tbl := newTable(t, path, Options{
				ChunkRows: 256, Parallelism: par,
				EnablePosMap: true, EnableCache: true, EnableStats: true,
			})
			got, _, err := faultCollect(tbl, ScanSpec{Needed: needed})
			if !errors.Is(err, faults.ErrIO) {
				t.Fatalf("want ErrIO, got %v", err)
			}
			if errors.Is(err, faults.ErrTransient) {
				t.Fatalf("permanent fault classified transient: %v", err)
			}
			// The committed prefix is a row-for-row match of the reference
			// and identical at every Parallelism (ordered commit).
			checkRows(t, got, ref[:len(got)], needed)
			if prefix == -1 {
				prefix = len(got)
			} else if len(got) != prefix {
				t.Fatalf("prefix length %d at par=%d, %d at par=1", len(got), par, prefix)
			}
			// Warm after fault: with the fault gone, the same table (whose
			// structures hold only the committed prefix) serves the full
			// file correctly.
			uninstall()
			got, _, err = faultCollect(tbl, ScanSpec{Needed: needed})
			if err != nil {
				t.Fatalf("clean rescan after fault: %v", err)
			}
			checkRows(t, got, ref, needed)
		})
	}
}

func TestPanicContainment(t *testing.T) {
	noLeaks(t)
	path, ref := genCSV(t, 3000)
	st, _ := os.Stat(path)
	from := st.Size() / 2
	needed := []int{0, 2}

	run := func(t *testing.T, par int, warm bool) {
		// Cache disabled: a fully cached warm scan would never touch the
		// file, so the injected read fault must be reachable on pass two.
		tbl := newTable(t, path, Options{
			ChunkRows: 128, Parallelism: par,
			EnablePosMap: true, EnableStats: true,
		})
		if warm {
			// Learn bases and the row count first, so the faulted scan takes
			// the worker-pread (srcFetch) path rather than the splitter path.
			if got, _, err := faultCollect(tbl, ScanSpec{Needed: needed}); err != nil {
				t.Fatal(err)
			} else {
				checkRows(t, got, ref, needed)
			}
		}
		uninstall := faultfs.Install(nil, faultfs.Options{Kind: faultfs.PanicRead, From: from, Times: 1})
		got, _, err := faultCollect(tbl, ScanSpec{Needed: needed})
		if !errors.Is(err, faults.ErrPanic) {
			t.Fatalf("want ErrPanic, got %v", err)
		}
		checkRows(t, got, ref[:len(got)], needed)
		// The panic consumed its one injection; the wrapper passes reads
		// through now, so a fresh scan completes.
		uninstall()
		got, _, err = faultCollect(tbl, ScanSpec{Needed: needed})
		if err != nil {
			t.Fatalf("rescan after contained panic: %v", err)
		}
		checkRows(t, got, ref, needed)
	}
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("cold/par=%d", par), func(t *testing.T) { run(t, par, false) })
		t.Run(fmt.Sprintf("warm/par=%d", par), func(t *testing.T) { run(t, par, true) })
	}
}

func TestPanicErrorIsSticky(t *testing.T) {
	noLeaks(t)
	path, _ := genCSV(t, 2000)
	uninstall := faultfs.Install(nil, faultfs.Options{Kind: faultfs.PanicRead, From: 0, Times: 1})
	t.Cleanup(uninstall)
	tbl := newTable(t, path, Options{ChunkRows: 256, Parallelism: 4})
	sc, err := tbl.NewScan(ScanSpec{Needed: []int{0}, B: &metrics.Breakdown{}})
	if err != nil {
		t.Fatal(err)
	}
	rc := rowsOf(sc)
	defer sc.Close()
	_, _, err = rc.Next()
	if !errors.Is(err, faults.ErrPanic) {
		t.Fatalf("want ErrPanic, got %v", err)
	}
	// The failed scan must stay failed: its worker state is mid-chunk.
	if _, _, err2 := rc.Next(); !errors.Is(err2, faults.ErrPanic) {
		t.Fatalf("sticky error lost: %v", err2)
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("close after error: %v", err)
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, _, err := rc.Next(); !errors.Is(err, faults.ErrClosed) {
		t.Fatalf("Next after Close: want ErrClosed, got %v", err)
	}
}

func TestTruncateMidScanReal(t *testing.T) {
	noLeaks(t)
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			path, _ := genCSV(t, 3000)
			tbl := newTable(t, path, Options{ChunkRows: 128, Parallelism: par})
			sc, err := tbl.NewScan(ScanSpec{Needed: []int{0}, B: &metrics.Breakdown{}})
			if err != nil {
				t.Fatal(err)
			}
			rc := rowsOf(sc)
			defer sc.Close()
			for served := 0; served < 200; served++ {
				if _, ok, err := rc.Next(); err != nil || !ok {
					t.Fatalf("warm-up rows: ok=%v err=%v", ok, err)
				}
			}
			st, _ := os.Stat(path)
			if err := os.Truncate(path, st.Size()/2); err != nil {
				t.Fatal(err)
			}
			for {
				_, ok, err := rc.Next()
				if err != nil {
					if !errors.Is(err, faults.ErrTruncated) || !errors.Is(err, faults.ErrFileChanged) {
						t.Fatalf("want ErrTruncated (an ErrFileChanged), got %v", err)
					}
					return
				}
				if !ok {
					t.Fatal("scan reached clean EOF over a file truncated mid-scan")
				}
			}
		})
	}
}

func TestTruncateWarmViaFaultfs(t *testing.T) {
	noLeaks(t)
	path, ref := genCSV(t, 3000)
	st, _ := os.Stat(path)
	needed := []int{0, 1}
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			// Cache off so the warm rescan preads the (now truncated) ranges.
			tbl := newTable(t, path, Options{
				ChunkRows: 128, Parallelism: par, EnablePosMap: true,
			})
			if got, _, err := faultCollect(tbl, ScanSpec{Needed: needed}); err != nil {
				t.Fatal(err)
			} else {
				checkRows(t, got, ref, needed)
			}
			uninstall := faultfs.Install(nil, faultfs.Options{Kind: faultfs.Truncate, From: st.Size() / 2})
			t.Cleanup(uninstall)
			got, _, err := faultCollect(tbl, ScanSpec{Needed: needed})
			if !errors.Is(err, faults.ErrTruncated) {
				t.Fatalf("want ErrTruncated on a warm scan of a truncated file, got %v", err)
			}
			checkRows(t, got, ref[:len(got)], needed)
		})
	}
}

func TestMutateMidScan(t *testing.T) {
	noLeaks(t)
	path, _ := genCSV(t, 3000)
	uninstall := faultfs.Install(nil, faultfs.Options{Kind: faultfs.Mutate, From: 100})
	t.Cleanup(uninstall)
	tbl := newTable(t, path, Options{ChunkRows: 128})
	_, _, err := faultCollect(tbl, ScanSpec{Needed: []int{0}})
	if !errors.Is(err, faults.ErrFileChanged) {
		t.Fatalf("want ErrFileChanged for a file mutated mid-scan, got %v", err)
	}
	if errors.Is(err, faults.ErrTruncated) {
		t.Fatalf("in-place mutation misreported as truncation: %v", err)
	}
}

func TestShardFaultIsolation(t *testing.T) {
	noLeaks(t)
	dir := t.TempDir()
	var paths []string
	var perShard int
	var all [][]value.Value
	for i := 0; i < 3; i++ {
		var sb strings.Builder
		perShard = 200
		for r := 0; r < perShard; r++ {
			id := i*perShard + r
			fmt.Fprintf(&sb, "%d,s%d\n", id, i)
			all = append(all, []value.Value{value.Int(int64(id)), value.Text(fmt.Sprintf("s%d", i))})
		}
		p := filepath.Join(dir, fmt.Sprintf("shard%d.csv", i))
		if err := os.WriteFile(p, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	sch := twoColSchema(t)
	tbl, err := NewShardedTable(filepath.Join(dir, "shard*.csv"), paths, sch, Options{ChunkRows: 64, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Fault only the middle shard: shard 0 must be served completely, the
	// error must be typed, and shards past the fault must stay untouched.
	uninstall := faultfs.Install(func(p string) bool {
		return filepath.Base(p) == "shard1.csv"
	}, faultfs.Options{Kind: faultfs.PermanentErr, From: 0})
	sc, err := tbl.OpenScan(ScanSpec{Needed: []int{0, 1}, B: &metrics.Breakdown{}})
	if err != nil {
		t.Fatal(err)
	}
	rc := rowsOf(sc)
	var got [][]value.Value
	for {
		row, ok, err := rc.Next()
		if err != nil {
			if !errors.Is(err, faults.ErrIO) {
				t.Fatalf("want ErrIO from the faulted shard, got %v", err)
			}
			break
		}
		if !ok {
			t.Fatal("sharded scan reached EOF through a permanently faulted shard")
		}
		cp := make([]value.Value, len(row))
		copy(cp, row)
		got = append(got, cp)
	}
	sc.Close()
	if len(got) != perShard {
		t.Fatalf("served %d rows before the shard-1 fault, want exactly shard 0's %d", len(got), perShard)
	}
	if tbl.Segments()[0].RowCount() != int64(perShard) {
		t.Fatalf("clean shard 0 did not learn its row count: %d", tbl.Segments()[0].RowCount())
	}
	if tbl.Segments()[2].RowCount() != -1 {
		t.Fatalf("shard 2 past the fault was touched: rowCount=%d", tbl.Segments()[2].RowCount())
	}
	// With the fault gone the same sharded table serves everything.
	uninstall()
	sc, err = tbl.OpenScan(ScanSpec{Needed: []int{0, 1}, B: &metrics.Breakdown{}})
	if err != nil {
		t.Fatal(err)
	}
	rc = rowsOf(sc)
	defer sc.Close()
	n := 0
	for {
		row, ok, err := rc.Next()
		if err != nil {
			t.Fatalf("clean rescan: %v", err)
		}
		if !ok {
			break
		}
		if !value.Equal(row[0], all[n][0]) || !value.Equal(row[1], all[n][1]) {
			t.Fatalf("row %d: got %v, want %v", n, row, all[n])
		}
		n++
	}
	if n != len(all) {
		t.Fatalf("clean rescan served %d rows, want %d", n, len(all))
	}
}

func TestScanCloseIdempotent(t *testing.T) {
	noLeaks(t)
	path, _ := genCSV(t, 500)
	for _, par := range []int{1, 8} {
		tbl := newTable(t, path, Options{ChunkRows: 64, Parallelism: par})
		sc, err := tbl.NewScan(ScanSpec{Needed: []int{0}, B: &metrics.Breakdown{}})
		if err != nil {
			t.Fatal(err)
		}
		rc := rowsOf(sc)
		if _, ok, err := rc.Next(); err != nil || !ok {
			t.Fatalf("first row: ok=%v err=%v", ok, err)
		}
		if err := sc.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := sc.Close(); err != nil {
			t.Fatalf("double close: %v", err)
		}
		if _, _, err := rc.Next(); !errors.Is(err, faults.ErrClosed) {
			t.Fatalf("Next after Close: want ErrClosed, got %v", err)
		}
		if _, _, err := sc.NextBatch(); !errors.Is(err, faults.ErrClosed) {
			t.Fatalf("NextBatch after Close: want ErrClosed, got %v", err)
		}
	}
}

// TestEOFIsCleanNotTruncated guards the boundary between a legitimately
// short final chunk and a truncation report: a file whose last chunk is
// partial must scan cleanly.
func TestEOFIsCleanNotTruncated(t *testing.T) {
	noLeaks(t)
	path, ref := genCSV(t, 1000) // not a multiple of ChunkRows
	for _, par := range []int{1, 8} {
		tbl := newTable(t, path, Options{ChunkRows: 128, Parallelism: par, EnablePosMap: true})
		for pass := 0; pass < 2; pass++ { // cold then warm (known row count)
			got, _, err := faultCollect(tbl, ScanSpec{Needed: []int{0, 4}})
			if err != nil {
				t.Fatalf("par=%d pass=%d: %v", par, pass, err)
			}
			checkRows(t, got, ref, []int{0, 4})
		}
	}
}

// twoColSchema is the sharded-fault test's id,text schema.
func twoColSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustNew([]schema.Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "tag", Kind: value.KindText},
	})
}
