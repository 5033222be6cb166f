package core

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"nodb/internal/expr"
	"nodb/internal/faults"
	"nodb/internal/metrics"
	"nodb/internal/value"
	"nodb/internal/watch"
)

// fixedRowWidth is the byte width of every row genFixedCSV emits. Fixed-width
// rows let tests pick partition_bytes values that land partition boundaries
// exactly on ChunkRows multiples, which is the documented precondition for
// bitwise-identical float aggregates between partitioned and plain scans
// (same chunk decomposition → same merge order).
const fixedRowWidth = 31

// genFixedCSV writes rows of exactly fixedRowWidth bytes each and returns the
// path plus parsed reference rows.
func genFixedCSV(t *testing.T, rows int) (string, [][]value.Value) {
	t.Helper()
	var sb strings.Builder
	ref := make([][]value.Value, rows)
	for i := 0; i < rows; i++ {
		score := fmt.Sprintf("%08.3f", float64(i)*0.37)
		line := fmt.Sprintf("%04d,name-%04d,%s,%d,true\n", i, i, score, i%7)
		if len(line) != fixedRowWidth {
			t.Fatalf("row %d is %d bytes, want %d", i, len(line), fixedRowWidth)
		}
		sb.WriteString(line)
		f, err := strconv.ParseFloat(score, 64)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = []value.Value{
			value.Int(int64(i)),
			value.Text(fmt.Sprintf("name-%04d", i)),
			value.Float(f),
			value.Int(int64(i % 7)),
			value.Bool(true),
		}
	}
	path := writeTempCSV(t, sb.String())
	return path, ref
}

func writeTempCSV(t *testing.T, content string) string {
	t.Helper()
	path := t.TempDir() + "/part.csv"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func newPartitionedTable(t *testing.T, path string, opts Options, partBytes int64) *Table {
	t.Helper()
	pt, err := NewPartitionedTable(path, testSchema, opts, partBytes)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// TestPartitionedVsPlain is the acceptance test for byte-range partitions:
// with partition boundaries aligned to ChunkRows multiples, a partitioned
// table must return byte-identical rows AND identical work counters to the
// plain single-file table, cold and warm, at Parallelism 1 and 8.
func TestPartitionedVsPlain(t *testing.T) {
	const rows = 583
	path, ref := genFixedCSV(t, rows)
	// Two 64-row chunks per partition: boundaries at exact row multiples.
	partBytes := int64(fixedRowWidth * 64 * 2)
	needed := []int{0, 1, 2, 3, 4}

	for _, par := range []int{1, 8} {
		opts := parOptions(par)
		plain := newTable(t, path, opts)
		pt := newPartitionedTable(t, path, opts, partBytes)

		// 583 rows * 31 B = 18073 B → boundaries every 3968 B → 5 partitions.
		if got := len(pt.Segments()); got != 5 {
			t.Fatalf("par=%d: NumShards=%d, want 5", par, got)
		}
		parts := pt.Segments()
		var prevHi int64
		for i, p := range parts {
			lo, hi := p.Range()
			if lo != prevHi {
				t.Fatalf("par=%d: partition %d starts at %d, previous ended at %d", par, i, lo, prevHi)
			}
			if i == len(parts)-1 {
				if hi != 0 {
					t.Fatalf("par=%d: last partition hi=%d, want 0 (through EOF)", par, hi)
				}
			} else if lo%int64(fixedRowWidth) != 0 || hi%int64(fixedRowWidth) != 0 {
				t.Fatalf("par=%d: partition %d range [%d,%d) not row-aligned", par, i, lo, hi)
			}
			prevHi = hi
		}

		for pass := 0; pass < 2; pass++ { // cold, then warm (map+cache populated)
			var pb, ptb metrics.Breakdown
			pRows := collectScanner(t, plain, ScanSpec{Needed: needed, B: &pb})
			ptRows := collectScanner(t, pt, ScanSpec{Needed: needed, B: &ptb})
			label := fmt.Sprintf("par=%d pass=%d", par, pass)
			sameRows(t, label, ptRows, pRows)
			if pass == 0 {
				checkRows(t, pRows, ref, needed)
			}
			if got, want := scanCounters(&ptb), scanCounters(&pb); got != want {
				t.Errorf("%s: partitioned counters=%v, plain=%v", label, got, want)
			}
			// SchedTasks is deterministic per layout: identical decompositions
			// must dispatch the same number of pool chunks.
			if pb.SchedTasks != ptb.SchedTasks {
				t.Errorf("%s: SchedTasks partitioned=%d, plain=%d", label, ptb.SchedTasks, pb.SchedTasks)
			}
			if par > 1 && pass == 0 && ptb.SchedTasks == 0 {
				t.Errorf("%s: parallel scan dispatched no pool tasks", label)
			}
		}
		if got := pt.RowCount(); got != rows {
			t.Errorf("par=%d: RowCount=%d, want %d", par, got, rows)
		}
	}
}

// TestPartitionedUnaligned drops the alignment precondition: variable-width
// rows and a partition size that lands mid-row. Boundaries must still snap to
// row starts and the row stream must match the plain table exactly (counters
// legitimately differ: the chunk decomposition changes).
func TestPartitionedUnaligned(t *testing.T) {
	path, ref := genCSV(t, 1207)
	opts := parOptions(4)
	plain := newTable(t, path, opts)
	pt := newPartitionedTable(t, path, opts, 4096)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	parts := pt.Segments()
	if len(parts) < 3 {
		t.Fatalf("only %d partitions, want several", len(parts))
	}
	for i, p := range parts {
		lo, _ := p.Range()
		if lo > 0 && raw[lo-1] != '\n' {
			t.Fatalf("partition %d starts at %d, not a row boundary (prev byte %q)", i, lo, raw[lo-1])
		}
	}

	needed := []int{0, 2, 4}
	for pass := 0; pass < 2; pass++ {
		pRows := collectScanner(t, plain, ScanSpec{Needed: needed})
		ptRows := collectScanner(t, pt, ScanSpec{Needed: needed})
		sameRows(t, fmt.Sprintf("pass=%d", pass), ptRows, pRows)
		if pass == 0 {
			checkRows(t, ptRows, ref, needed)
		}
	}
}

// TestPartitionedAggBitwise verifies aggregate pushdown across partitions:
// group order, keys and results — including order-sensitive float SUM/AVG —
// must be bitwise identical to the plain table when partitions align to
// chunk boundaries, cold and warm, at Parallelism 1 and 8.
func TestPartitionedAggBitwise(t *testing.T) {
	path, _ := genFixedCSV(t, 583)
	partBytes := int64(fixedRowWidth * 64 * 2)
	// Needed layout [id, score, grp] → slots 0, 1, 2.
	env := expr.NewEnv()
	env.Add("", "id", value.KindInt)
	env.Add("", "score", value.KindFloat)
	env.Add("", "grp", value.KindInt)

	drain := func(tbl *Table) ([]string, [][]value.Value) {
		t.Helper()
		sc, err := tbl.OpenScan(ScanSpec{Needed: []int{0, 2, 3}, B: &metrics.Breakdown{}})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		push := &AggPushdown{
			Keys: []expr.Node{expr.Slot(env, 2)},
			Aggs: []AggCall{
				{Name: "COUNT", Star: true},
				{Name: "SUM", Arg: expr.Slot(env, 1)},
				{Name: "AVG", Arg: expr.Slot(env, 1)},
				{Name: "MIN", Arg: expr.Slot(env, 0)},
			},
		}
		if !sc.PushAgg(push) {
			t.Fatal("PushAgg refused")
		}
		groups, err := sc.DrainAgg()
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		var results [][]value.Value
		for _, g := range groups {
			keys = append(keys, g.Key)
			row := make([]value.Value, len(g.States))
			for i, st := range g.States {
				row[i] = st.Result()
			}
			results = append(results, row)
		}
		return keys, results
	}

	for _, par := range []int{1, 8} {
		opts := parOptions(par)
		plain := newTable(t, path, opts)
		pt := newPartitionedTable(t, path, opts, partBytes)
		for pass := 0; pass < 2; pass++ {
			pKeys, pRes := drain(plain)
			ptKeys, ptRes := drain(pt)
			label := fmt.Sprintf("par=%d pass=%d", par, pass)
			if fmt.Sprint(ptKeys) != fmt.Sprint(pKeys) {
				t.Fatalf("%s: group keys/order differ: %q vs %q", label, ptKeys, pKeys)
			}
			sameRows(t, label+" agg results", ptRes, pRes)
		}
	}
}

// TestPartitionedRefresh pins the append/rewrite semantics: appends extend
// only the unbounded last partition (interior partitions keep their learned
// structures untouched); a rewrite discards the partitioning entirely so row
// boundaries are rediscovered against the new bytes.
func TestPartitionedRefresh(t *testing.T) {
	path, _ := genFixedCSV(t, 300)
	partBytes := int64(fixedRowWidth * 64) // 64-row partitions → 5 of them
	pt := newPartitionedTable(t, path, parOptions(2), partBytes)

	if rows := collectScanner(t, pt, ScanSpec{Needed: []int{0}}); len(rows) != 300 {
		t.Fatalf("initial scan: %d rows, want 300", len(rows))
	}
	if ch, err := pt.Refresh(); err != nil || ch != watch.Unchanged {
		t.Fatalf("Refresh = %v, %v", ch, err)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("9001,name-x,1.5,3,true\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ch, err := pt.Refresh()
	if err != nil || ch != watch.Appended {
		t.Fatalf("Refresh after append = %v, %v", ch, err)
	}
	if got := len(pt.Segments()); got != 5 {
		t.Fatalf("append changed partition count to %d", got)
	}
	if grains := pt.Segments()[0].PosMap().Stats().Grains; grains == 0 {
		t.Fatal("interior partition lost its positional map on append")
	}
	rows := collectScanner(t, pt, ScanSpec{Needed: []int{0}})
	if len(rows) != 301 {
		t.Fatalf("post-append scan: %d rows, want 301", len(rows))
	}
	if got := rows[300][0].I; got != 9001 {
		t.Fatalf("appended row: rows[300][0]=%d, want 9001", got)
	}

	// Rewrite with a much smaller file: the old boundaries are meaningless,
	// so the partitioning must be rediscovered from scratch.
	var sb strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&sb, "%d,name-%d,%g,%d,true\n", 1000+i, i, float64(i), i%7)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	ch, err = pt.Refresh()
	if err != nil || ch != watch.Rewritten {
		t.Fatalf("Refresh after rewrite = %v, %v", ch, err)
	}
	if got := len(pt.Segments()); got != 1 {
		t.Fatalf("rediscovered %d partitions over a %d-byte file, want 1", got, sb.Len())
	}
	rows = collectScanner(t, pt, ScanSpec{Needed: []int{0}})
	if len(rows) != 10 || rows[0][0].I != 1000 {
		t.Fatalf("post-rewrite scan: %d rows, first=%v", len(rows), rows[0][0])
	}

	// The cumulative error counters are the table's, not the partitions': a
	// rewrite discards the partitioning but keeps the tallies, exactly as a
	// plain table does.
	plain := newTable(t, path, parOptions(2))
	if err := os.WriteFile(path, []byte("oops,name-0,1,1,true\n"+sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []*Table{pt, plain} {
		if _, err := tbl.Refresh(); err != nil {
			t.Fatal(err)
		}
		collectScanner(t, tbl, ScanSpec{Needed: []int{0}})
		if m, d := tbl.ErrorCounts(); m != 1 || d != 0 {
			t.Fatalf("ErrorCounts after one malformed field = (%d, %d), want (1, 0)", m, d)
		}
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []*Table{pt, plain} {
		if ch, err := tbl.Refresh(); err != nil || ch != watch.Rewritten {
			t.Fatalf("Refresh after second rewrite = %v, %v", ch, err)
		}
		if m, d := tbl.ErrorCounts(); m != 1 || d != 0 {
			t.Fatalf("ErrorCounts after a rewrite = (%d, %d), want the tallies kept at (1, 0)", m, d)
		}
	}
}

// TestShardedRefreshBestEffort pins the satellite fix: Refresh must visit
// every shard even when an early one fails, report the strongest observed
// change, and wrap the first error with the failing shard's path while
// keeping the faults taxonomy reachable through errors.Is.
func TestShardedRefreshBestEffort(t *testing.T) {
	_, shards, _ := genShardFiles(t, 300, []int{128, 100, 72})
	shTbl := newShardedTable(t, shards, parOptions(1))
	if rows := collectScanner(t, shTbl, ScanSpec{Needed: []int{0}}); len(rows) != 300 {
		t.Fatalf("initial scan: %d rows", len(rows))
	}

	// Shard 1 vanishes; shard 2 gets an append. The old first-error-abort
	// behavior would return on shard 1 and leave shard 2 stale.
	if err := os.Remove(shards[1]); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(shards[2], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("9001,name-x,1.5,3,true\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ch, err := shTbl.Refresh()
	if err == nil {
		t.Fatal("Refresh with a missing shard returned nil error")
	}
	if !errors.Is(err, faults.ErrFileChanged) {
		t.Fatalf("Refresh error %v does not wrap faults.ErrFileChanged", err)
	}
	if !strings.Contains(err.Error(), shards[1]) {
		t.Fatalf("Refresh error %q does not name the failing shard %s", err, shards[1])
	}
	if ch != watch.Missing {
		t.Fatalf("Refresh change = %v, want Missing (strongest observed)", ch)
	}
	// Shard 2's append must have been adopted despite shard 1's failure: a
	// direct re-probe sees nothing new.
	if ch2, err2 := shTbl.Segments()[2].Refresh(); err2 != nil || ch2 != watch.Unchanged {
		t.Fatalf("shard 2 after best-effort refresh: %v, %v (append not adopted)", ch2, err2)
	}
}

// TestShardAheadEquivalence verifies concurrent shard dispatch is invisible
// in every observable output: for the same sharded table, ShardAhead 1
// (serial shard pipelines) and ShardAhead 3 must produce byte-identical
// rows, work counters, and bitwise-identical pushed-down aggregates.
func TestShardAheadEquivalence(t *testing.T) {
	single, shards, _ := genShardFiles(t, 583, []int{256, 192, 135})
	needed := []int{0, 1, 2, 3, 4}

	run := func(ahead int) ([][]value.Value, [7]int64) {
		t.Helper()
		opts := parOptions(4)
		opts.ShardAhead = ahead
		shTbl := newShardedTable(t, shards, opts)
		var b metrics.Breakdown
		rows := collectScanner(t, shTbl, ScanSpec{Needed: needed, B: &b})
		return rows, scanCounters(&b)
	}

	rows1, c1 := run(1)
	rows3, c3 := run(3)
	sameRows(t, "ahead=3 vs ahead=1", rows3, rows1)
	if c1 != c3 {
		t.Errorf("counters ahead=1 %v vs ahead=3 %v", c1, c3)
	}
	sTbl := newTable(t, single, parOptions(4))
	sRows := collectScanner(t, sTbl, ScanSpec{Needed: needed})
	sameRows(t, "sharded vs single", rows3, sRows)

	// Aggregate pushdown under a concurrent window: the shared merge table
	// is only fed at ordered commits, so float SUM stays bitwise stable.
	env := expr.NewEnv()
	env.Add("", "score", value.KindFloat)
	env.Add("", "grp", value.KindInt)
	drain := func(ahead int) []value.Value {
		t.Helper()
		opts := parOptions(4)
		opts.ShardAhead = ahead
		shTbl := newShardedTable(t, shards, opts)
		sc, err := shTbl.OpenScan(ScanSpec{Needed: []int{2, 3}, B: &metrics.Breakdown{}})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		push := &AggPushdown{
			Keys: []expr.Node{expr.Slot(env, 1)},
			Aggs: []AggCall{{Name: "SUM", Arg: expr.Slot(env, 0)}, {Name: "AVG", Arg: expr.Slot(env, 0)}},
		}
		if !sc.PushAgg(push) {
			t.Fatal("PushAgg refused")
		}
		groups, err := sc.DrainAgg()
		if err != nil {
			t.Fatal(err)
		}
		var out []value.Value
		for _, g := range groups {
			for _, st := range g.States {
				out = append(out, st.Result())
			}
		}
		return out
	}
	agg1, agg3 := drain(1), drain(3)
	if len(agg1) != len(agg3) {
		t.Fatalf("agg result counts differ: %d vs %d", len(agg1), len(agg3))
	}
	for i := range agg1 {
		if agg1[i] != agg3[i] { // struct equality → bitwise for floats
			t.Fatalf("agg result %d: ahead=1 %#v vs ahead=3 %#v", i, agg1[i], agg3[i])
		}
	}
}

// TestShardWindowLaziness: with a concurrent window active (Parallelism > 1,
// default ShardAhead), a scan closed inside shard 0 must never have opened
// shards beyond the read-ahead window.
func TestShardWindowLaziness(t *testing.T) {
	_, shards, _ := genShardFiles(t, 421, []int{128, 150, 143})
	shTbl := newShardedTable(t, shards, parOptions(4)) // ShardAhead defaults to 2
	sc, err := shTbl.OpenScan(ScanSpec{Needed: []int{0}, B: &metrics.Breakdown{}})
	if err != nil {
		t.Fatal(err)
	}
	rc := rowsOf(sc)
	for i := 0; i < 10; i++ { // well inside shard 0
		if _, ok, err := rc.Next(); err != nil || !ok {
			t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	// Shard 1 sits inside the window and may have been prefetched; shard 2
	// is beyond it and must be untouched.
	sh := shTbl.Segments()[2]
	if n := sh.Queries(); n != 0 {
		t.Errorf("shard beyond window saw %d scans", n)
	}
	if st := sh.PosMap().Stats(); st.Grains != 0 {
		t.Errorf("shard beyond window has %d posmap grains", st.Grains)
	}
	if st := sh.Cache().Stats(); st.Fragments != 0 {
		t.Errorf("shard beyond window has %d cache fragments", st.Fragments)
	}
}
