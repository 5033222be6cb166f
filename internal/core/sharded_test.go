package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/rawcache"
	"nodb/internal/value"
	"nodb/internal/watch"
)

// genShardFiles writes the same deterministic dataset once as a single file
// and once split into shard files at the given row boundaries, returning
// (singlePath, shardPaths, refRows). The concatenation of the shard files is
// byte-identical to the single file.
func genShardFiles(t *testing.T, rows int, splits []int) (string, []string, [][]value.Value) {
	t.Helper()
	lines := make([]string, rows)
	ref := make([][]value.Value, rows)
	for i := 0; i < rows; i++ {
		flag := "true"
		if i%3 == 0 {
			flag = "false"
		}
		lines[i] = fmt.Sprintf("%d,name-%d,%g,%d,%s\n", i, i, float64(i)*0.37, i%7, flag)
		ref[i] = []value.Value{
			value.Int(int64(i)),
			value.Text(fmt.Sprintf("name-%d", i)),
			value.Float(float64(i) * 0.37),
			value.Int(int64(i % 7)),
			value.Bool(i%3 != 0),
		}
	}
	dir := t.TempDir()
	single := filepath.Join(dir, "single.csv")
	if err := os.WriteFile(single, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	var shardPaths []string
	start := 0
	for s, n := range splits {
		p := filepath.Join(dir, fmt.Sprintf("shard-%02d.csv", s))
		if err := os.WriteFile(p, []byte(strings.Join(lines[start:start+n], "")), 0o644); err != nil {
			t.Fatal(err)
		}
		shardPaths = append(shardPaths, p)
		start += n
	}
	if start != rows {
		t.Fatalf("splits sum to %d, want %d", start, rows)
	}
	return single, shardPaths, ref
}

func newShardedTable(t *testing.T, paths []string, opts Options) *Table {
	t.Helper()
	st, err := NewShardedTable("shard-*.csv", paths, testSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// collectScanner drains any Scanner into a row matrix.
func collectScanner(t *testing.T, tbl *Table, spec ScanSpec) [][]value.Value {
	t.Helper()
	if spec.B == nil {
		spec.B = &metrics.Breakdown{}
	}
	sc, err := tbl.OpenScan(spec)
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

func sameRows(t *testing.T, label string, got, want [][]value.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for r := range got {
		for c := range got[r] {
			// Struct equality: bitwise for floats, not just numerically equal.
			if got[r][c] != want[r][c] {
				t.Fatalf("%s: row %d col %d: got %#v, want %#v", label, r, c, got[r][c], want[r][c])
			}
		}
	}
}

// TestShardedScanEquivalence is the core acceptance test for the tentpole:
// a sharded table whose shard files concatenate to the single file must
// produce byte-identical rows and work counters, cold and warm, at
// Parallelism 1 and 8 — with shard boundaries aligned to chunk boundaries,
// the per-shard positional map and cache contents must equal the single
// file's, chunk for chunk, modulo each shard's byte offset.
func TestShardedScanEquivalence(t *testing.T) {
	const chunk = 64
	// 256 and 192 are multiples of ChunkRows, so single-file chunks align
	// with shard chunks: 4 + 3 + 3 chunks vs 10 chunks of the single file.
	single, shards, ref := genShardFiles(t, 583, []int{256, 192, 135})
	needed := []int{0, 1, 2, 3, 4}

	for _, par := range []int{1, 8} {
		opts := parOptions(par)
		sTbl := newTable(t, single, opts)
		shTbl := newShardedTable(t, shards, opts)

		for pass := 0; pass < 2; pass++ { // cold, then warm (map+cache populated)
			var sb, shb metrics.Breakdown
			sRows := collectScanner(t, sTbl, ScanSpec{Needed: needed, B: &sb})
			shRows := collectScanner(t, shTbl, ScanSpec{Needed: needed, B: &shb})
			label := fmt.Sprintf("par=%d pass=%d", par, pass)
			sameRows(t, label, shRows, sRows)
			if pass == 0 {
				checkRows(t, sRows, ref, needed)
			}
			if got, want := scanCounters(&shb), scanCounters(&sb); got != want {
				t.Errorf("%s: sharded counters=%v, single-file=%v", label, got, want)
			}
		}
		if got := shTbl.RowCount(); got != 583 {
			t.Errorf("par=%d sharded RowCount=%d, want 583", par, got)
		}

		// Per-shard structure contents vs the corresponding single-file
		// chunks: positional-map entries shifted by the shard's byte offset,
		// cache fragments value-identical. Chunk counts come from the row
		// counts (NumChunks may include a learned end-of-file base entry for
		// shards holding an exact multiple of ChunkRows).
		var chunkOff int
		var byteOff int64
		for si, sh := range shTbl.Segments() {
			nchunks := int((sh.RowCount() + chunk - 1) / chunk)
			for c := 0; c < nchunks; c++ {
				shView, shOK := sh.PosMap().ViewChunk(c)
				sView, sOK := sTbl.Segments()[0].PosMap().ViewChunk(chunkOff + c)
				if shOK != sOK {
					t.Fatalf("par=%d shard %d chunk %d: map coverage %v vs single %v", par, si, c, shOK, sOK)
				}
				if shOK {
					if shView.Rows() != sView.Rows() {
						t.Fatalf("par=%d shard %d chunk %d: map rows %d vs %d", par, si, c, shView.Rows(), sView.Rows())
					}
					if fmt.Sprint(shView.Delims()) != fmt.Sprint(sView.Delims()) {
						t.Fatalf("par=%d shard %d chunk %d: delims %v vs %v", par, si, c, shView.Delims(), sView.Delims())
					}
					for r := 0; r < shView.Rows(); r++ {
						for _, d := range shView.Delims() {
							shPos, ok1 := shView.Pos(r, d)
							sPos, ok2 := sView.Pos(r, d)
							if ok1 != ok2 {
								t.Fatalf("par=%d shard %d chunk %d row %d delim %d: pos presence %v vs %v",
									par, si, c, r, d, ok1, ok2)
							}
							if ok1 && shPos+byteOff != sPos {
								t.Fatalf("par=%d shard %d chunk %d row %d delim %d: pos %d+%d != %d",
									par, si, c, r, d, shPos, byteOff, sPos)
							}
						}
					}
				}
				for a := 0; a < testSchema.Len(); a++ {
					shFrag, shHas := sh.Cache().Get(rawcache.Key{Chunk: c, Attr: a})
					sFrag, sHas := sTbl.Segments()[0].Cache().Get(rawcache.Key{Chunk: chunkOff + c, Attr: a})
					if shHas != sHas {
						t.Fatalf("par=%d shard %d chunk %d attr %d: cache presence %v vs %v", par, si, c, a, shHas, sHas)
					}
					if !shHas {
						continue
					}
					if shFrag.Rows != sFrag.Rows {
						t.Fatalf("par=%d shard %d chunk %d attr %d: cache rows %d vs %d", par, si, c, a, shFrag.Rows, sFrag.Rows)
					}
					for r := 0; r < shFrag.Rows; r++ {
						if shFrag.Value(r) != sFrag.Value(r) {
							t.Fatalf("par=%d shard %d chunk %d attr %d row %d: cache %#v vs %#v",
								par, si, c, a, r, shFrag.Value(r), sFrag.Value(r))
						}
					}
				}
			}
			chunkOff += nchunks
			fi, err := os.Stat(shards[si])
			if err != nil {
				t.Fatal(err)
			}
			byteOff += fi.Size()
		}
		if want := int((sTbl.RowCount() + chunk - 1) / chunk); chunkOff != want {
			t.Errorf("par=%d: shards hold %d chunks, single file %d", par, chunkOff, want)
		}
	}
}

// TestShardedScanFiltered repeats the row/counter equivalence with a
// pushed-down predicate (selective tuple formation in play) and shard
// boundaries deliberately not aligned to chunks.
func TestShardedScanFiltered(t *testing.T) {
	single, shards, _ := genShardFiles(t, 421, []int{100, 57, 23, 241})
	needed := []int{0, 2, 3}
	pred := rowFilter(func(row []value.Value) (bool, error) {
		return row[0].I%3 == 0, nil // id % 3 == 0 over the Needed layout
	})
	for _, par := range []int{1, 8} {
		opts := parOptions(par)
		sTbl := newTable(t, single, opts)
		shTbl := newShardedTable(t, shards, opts)
		for pass := 0; pass < 2; pass++ {
			var sb, shb metrics.Breakdown
			spec := func(b *metrics.Breakdown) ScanSpec {
				return ScanSpec{Needed: needed, FilterAttrs: []int{0}, Filter: pred, B: b}
			}
			sRows := collectScanner(t, sTbl, spec(&sb))
			shRows := collectScanner(t, shTbl, spec(&shb))
			label := fmt.Sprintf("par=%d pass=%d", par, pass)
			sameRows(t, label, shRows, sRows)
			got, want := scanCounters(&shb), scanCounters(&sb)
			if pass > 0 {
				// Unaligned shard boundaries change the chunk decomposition,
				// and a warm mapped read skips the unneeded tail of each
				// chunk's last row — so the raw byte count legitimately
				// differs with the chunk count. Row/field-level work must
				// still match exactly.
				got[0], want[0] = 0, 0
			}
			if got != want {
				t.Errorf("%s: sharded counters=%v, single-file=%v", label, got, want)
			}
		}
	}
}

// TestShardedAggPushdown verifies cross-shard partial-aggregate merging:
// the sharded scan's merged groups must match the single-file scan's in
// group order, key values and aggregate results — bitwise, including the
// order-sensitive float SUM/AVG — cold and warm, at Parallelism 1 and 8.
func TestShardedAggPushdown(t *testing.T) {
	single, shards, _ := genShardFiles(t, 583, []int{256, 192, 135})
	// Needed layout [id, score, grp] → slots 0, 1, 2.
	env := expr.NewEnv()
	env.Add("", "id", value.KindInt)
	env.Add("", "score", value.KindFloat)
	env.Add("", "grp", value.KindInt)

	drain := func(tbl *Table) ([]string, [][]value.Value) {
		t.Helper()
		b := &metrics.Breakdown{}
		sc, err := tbl.OpenScan(ScanSpec{Needed: []int{0, 2, 3}, B: b})
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
				{Name: "COUNT", Arg: expr.Slot(env, 0), Distinct: true},
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
		sTbl := newTable(t, single, opts)
		shTbl := newShardedTable(t, shards, opts)
		for pass := 0; pass < 2; pass++ {
			sKeys, sRes := drain(sTbl)
			shKeys, shRes := drain(shTbl)
			label := fmt.Sprintf("par=%d pass=%d", par, pass)
			if fmt.Sprint(shKeys) != fmt.Sprint(sKeys) {
				t.Fatalf("%s: group keys/order differ: %q vs %q", label, shKeys, sKeys)
			}
			sameRows(t, label+" agg results", shRes, sRes)
		}
	}
}

// TestShardedEarlyClose asserts that closing a sharded scan after consuming
// only the first shard's rows never opens — or populates structures of —
// the shards the query did not reach.
func TestShardedEarlyClose(t *testing.T) {
	_, shards, _ := genShardFiles(t, 421, []int{128, 150, 143})
	shTbl := newShardedTable(t, shards, parOptions(1))
	b := &metrics.Breakdown{}
	sc, err := shTbl.OpenScan(ScanSpec{Needed: []int{0}, B: b})
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
	for si, sh := range shTbl.Segments()[1:] {
		if n := sh.Queries(); n != 0 {
			t.Errorf("unreached shard %d saw %d scans", si+1, n)
		}
		if st := sh.PosMap().Stats(); st.Grains != 0 {
			t.Errorf("unreached shard %d has %d posmap grains", si+1, st.Grains)
		}
		if st := sh.Cache().Stats(); st.Fragments != 0 {
			t.Errorf("unreached shard %d has %d cache fragments", si+1, st.Fragments)
		}
	}
}

// TestShardedBudgetSplit checks budgets divide across shards and re-split on
// SetBudgets.
func TestShardedBudgetSplit(t *testing.T) {
	_, shards, _ := genShardFiles(t, 300, []int{100, 100, 100})
	opts := parOptions(1)
	opts.PosMapBudget = 3000
	opts.CacheBudget = 4 // smaller than the shard count: clamps to 1, not 0
	shTbl := newShardedTable(t, shards, opts)
	for _, sh := range shTbl.Segments() {
		o := sh.Options()
		if o.PosMapBudget != 1000 || o.CacheBudget != 1 {
			t.Fatalf("shard budgets = (%d, %d), want (1000, 1)", o.PosMapBudget, o.CacheBudget)
		}
	}
	shTbl.SetBudgets(0, 6000)
	for _, sh := range shTbl.Segments() {
		o := sh.Options()
		if o.PosMapBudget != 0 || o.CacheBudget != 2000 {
			t.Fatalf("shard budgets after SetBudgets = (%d, %d), want (0, 2000)", o.PosMapBudget, o.CacheBudget)
		}
	}
	if o := shTbl.Options(); o.PosMapBudget != 0 || o.CacheBudget != 6000 {
		t.Fatalf("table budgets = (%d, %d), want (0, 6000)", o.PosMapBudget, o.CacheBudget)
	}
	// Component toggles must reflect in the table-level options (partial
	// ALTERs read current values back from Options).
	shTbl.SetEnabled(true, false, true)
	o := shTbl.Options()
	if !o.EnablePosMap || o.EnableCache || !o.EnableStats {
		t.Fatalf("table enables after SetEnabled = (%v, %v, %v), want (true, false, true)",
			o.EnablePosMap, o.EnableCache, o.EnableStats)
	}
	for _, sh := range shTbl.Segments() {
		so := sh.Options()
		if !so.EnablePosMap || so.EnableCache || !so.EnableStats {
			t.Fatal("shard enables did not follow SetEnabled")
		}
	}
}

// TestShardedRefresh verifies per-shard refresh: appending to one shard
// keeps every other shard's learned state and reports "appended".
func TestShardedRefresh(t *testing.T) {
	_, shards, _ := genShardFiles(t, 300, []int{128, 100, 72})
	shTbl := newShardedTable(t, shards, parOptions(1))
	rows := collectScanner(t, shTbl, ScanSpec{Needed: []int{0}})
	if len(rows) != 300 {
		t.Fatalf("initial scan: %d rows", len(rows))
	}
	if ch, err := shTbl.Refresh(); err != nil || ch != watch.Unchanged {
		t.Fatalf("Refresh = %v, %v", ch, err)
	}
	f, err := os.OpenFile(shards[1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("9001,name-x,1.5,3,true\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ch, err := shTbl.Refresh()
	if err != nil || ch != watch.Appended {
		t.Fatalf("Refresh after append = %v, %v", ch, err)
	}
	grains0 := shTbl.Segments()[0].PosMap().Stats().Grains
	if grains0 == 0 {
		t.Fatal("shard 0 lost its positional map on another shard's append")
	}
	rows = collectScanner(t, shTbl, ScanSpec{Needed: []int{0}})
	if len(rows) != 301 {
		t.Fatalf("post-append scan: %d rows, want 301", len(rows))
	}
	// The appended row lands mid-stream, after shard 1's original rows.
	if got := rows[228][0].I; got != 9001 {
		t.Fatalf("appended row at wrong position: rows[228][0]=%d", got)
	}
}
