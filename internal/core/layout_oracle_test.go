package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"nodb/internal/expr"
	"nodb/internal/faults"
	"nodb/internal/metrics"
	"nodb/internal/rawcache"
	"nodb/internal/value"
)

// The layout oracle: one randomized differential instead of a growing
// matrix of pairwise ones. A seeded generator produces a CSV and a query
// shape; the plain file scanned at Parallelism 1 is the reference, and every
// other layout — the same file at higher parallelism, k files split at
// chunk-aligned or arbitrary rows, byte-range partitions — must agree with
// it cold, warm and after an append. How much must agree depends on whether
// the layout's chunk decomposition matches the reference's:
//
//   - aligned (plain, chunk-aligned split): rows, every deterministic
//     counter, float aggregates bitwise, the max_errors failure point, and
//     per-segment positional-map and cache contents;
//   - unaligned (arbitrary split, byte ranges): rows, the error class, and
//     the exact (integer) aggregates. Per-chunk facts — which chunk crosses
//     the error budget, which chunks are dirty, float summation order —
//     legitimately differ.

const oracleChunk = 32

// oracleData is one generated file: its bytes, where each row ends (so
// splits land on row boundaries), and a block of further rows to append.
type oracleData struct {
	data    []byte
	rowEnds []int
	extra   []byte
	nextra  int
}

func genOracleData(rng *rand.Rand) oracleData {
	var d oracleData
	nrows := rng.Intn(600)
	if rng.Intn(10) == 0 {
		nrows = 0 // the empty file
	}
	giant := -1
	if nrows > 0 && rng.Intn(2) == 0 {
		giant = rng.Intn(nrows) // one row longer than a byte-range partition
	}
	row := func(buf *bytes.Buffer, i int, last bool) {
		id, name := fmt.Sprint(i), fmt.Sprintf("n%d", i)
		score := fmt.Sprintf("%g", rng.Float64()*1000)
		grp, flag := fmt.Sprint(rng.Intn(7)), fmt.Sprint(rng.Intn(2) == 0)
		if i == giant {
			name = string(bytes.Repeat([]byte{'g'}, 3*oraclePartBytes))
		}
		switch rng.Intn(30) {
		case 0:
			id = "x" + id // malformed int
		case 1:
			score = "1.2.3" // malformed float
		case 2:
			grp = "" // empty field: a legitimate NULL, never an event
		}
		if rng.Intn(30) == 0 {
			fmt.Fprintf(buf, "%s,%s", id, name) // ragged
		} else {
			fmt.Fprintf(buf, "%s,%s,%s,%s,%s", id, name, score, grp, flag)
		}
		switch {
		case last:
		case rng.Intn(5) == 0:
			buf.WriteString("\r\n")
		default:
			buf.WriteString("\n")
		}
	}
	var buf bytes.Buffer
	noTrailingNL := rng.Intn(3) == 0
	for i := 0; i < nrows; i++ {
		row(&buf, i, noTrailingNL && i == nrows-1)
		d.rowEnds = append(d.rowEnds, buf.Len())
	}
	d.data = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if noTrailingNL && nrows > 0 {
		buf.WriteString("\n") // terminate the old final row first
	}
	d.nextra = 1 + rng.Intn(3*oracleChunk)
	for i := 0; i < d.nextra; i++ {
		row(&buf, nrows+i, false)
	}
	d.extra = append([]byte(nil), buf.Bytes()...)
	return d
}

const oraclePartBytes = 600

// oracleQuery is the randomized query shape shared by the reference and
// every layout of one seed.
type oracleQuery struct {
	needed []int
	filter bool
	drive  int // 0 rows, 1 batches, 2 aggregation pushdown
}

func (q oracleQuery) spec(b *metrics.Breakdown) ScanSpec {
	spec := ScanSpec{Needed: q.needed, B: b}
	if q.filter {
		gi := 0
		for i, a := range q.needed {
			if a == 3 {
				gi = i
			}
		}
		spec.FilterAttrs = []int{3}
		spec.Filter = func(row []value.Value) (bool, error) {
			return row[gi].K == value.KindInt && row[gi].I < 4, nil
		}
	}
	return spec
}

// oracleResult is everything one scan is compared on.
type oracleResult struct {
	rows     [][]value.Value // result rows, or one row per group under drive 2
	counters [9]int64
	tooMany  bool
}

// oracleAgg groups by grp over the layout (id, score, grp): the first two
// aggregates are exact, the last two are order-sensitive floats.
func oracleAgg() *AggPushdown {
	env := expr.NewEnv()
	env.Add("", "id", value.KindInt)
	env.Add("", "score", value.KindFloat)
	env.Add("", "grp", value.KindInt)
	return &AggPushdown{
		Keys: []expr.Node{expr.Slot(env, 2)},
		Aggs: []AggCall{
			{Name: "COUNT", Star: true},
			{Name: "SUM", Arg: expr.Slot(env, 0)},
			{Name: "SUM", Arg: expr.Slot(env, 1)},
			{Name: "AVG", Arg: expr.Slot(env, 1)},
		},
	}
}

func runOracleScan(t *testing.T, tbl *Table, q oracleQuery) oracleResult {
	t.Helper()
	var b metrics.Breakdown
	var res oracleResult
	sc, err := tbl.NewScan(q.spec(&b))
	if err != nil {
		t.Fatal(err)
	}
	rc := rowsOf(sc)
	defer sc.Close()
	keep := func(row []value.Value) {
		res.rows = append(res.rows, append([]value.Value(nil), row...))
	}
	switch q.drive {
	case 0:
		for {
			row, ok, nerr := rc.Next()
			if err = nerr; err != nil || !ok {
				break
			}
			keep(row)
		}
	case 1:
		row := make([]value.Value, len(q.needed))
		for {
			batch, ok, nerr := sc.NextBatch()
			if err = nerr; err != nil || !ok {
				break
			}
			for _, r := range batch.Sel {
				for i, col := range batch.Cols {
					row[i] = col[r]
				}
				keep(row)
			}
		}
	default:
		if !sc.PushAgg(oracleAgg()) {
			t.Fatal("PushAgg refused")
		}
		var groups []*PartialGroup
		groups, err = sc.DrainAgg()
		for _, g := range groups {
			row := append([]value.Value(nil), g.KeyVals...)
			for _, st := range g.States {
				row = append(row, st.Result())
			}
			res.rows = append(res.rows, row)
		}
	}
	if err != nil {
		if !errors.Is(err, faults.ErrTooManyErrors) {
			t.Fatalf("scan failed with %v", err)
		}
		res.tooMany = true
	}
	c := scanCounters(&b)
	if res.tooMany {
		c[0] = 0 // bytes read ahead of the failing chunk are not part of the contract
	}
	copy(res.counters[:], c[:])
	res.counters[7], res.counters[8] = b.MalformedFields, b.RowsDropped
	return res
}

// sameSegmentStructures compares the positional-map and cache contents of
// the segments of a chunk-aligned layout against the corresponding chunks
// of the single-segment reference. segRows gives each segment's row count.
func sameSegmentStructures(t *testing.T, label string, segs []*Segment, segRows []int, ref *Segment) {
	t.Helper()
	var chunkOff int
	var byteOff int64
	for si, g := range segs {
		nchunks := (segRows[si] + oracleChunk - 1) / oracleChunk
		for c := 0; c < nchunks; c++ {
			gv, gok := g.PosMap().ViewChunk(c)
			rv, rok := ref.PosMap().ViewChunk(chunkOff + c)
			if gok != rok {
				t.Fatalf("%s: segment %d chunk %d: map coverage %v, reference %v", label, si, c, gok, rok)
			}
			if gok {
				if gv.Rows() != rv.Rows() || fmt.Sprint(gv.Delims()) != fmt.Sprint(rv.Delims()) {
					t.Fatalf("%s: segment %d chunk %d: map shape (%d rows, %v) vs reference (%d rows, %v)",
						label, si, c, gv.Rows(), gv.Delims(), rv.Rows(), rv.Delims())
				}
				for r := 0; r < gv.Rows(); r++ {
					for _, d := range gv.Delims() {
						gp, ok1 := gv.Pos(r, d)
						rp, ok2 := rv.Pos(r, d)
						if ok1 != ok2 || (ok1 && gp+byteOff != rp) {
							t.Fatalf("%s: segment %d chunk %d row %d delim %d: pos %d+%d (%v) vs %d (%v)",
								label, si, c, r, d, gp, byteOff, ok1, rp, ok2)
						}
					}
				}
			}
			for a := 0; a < testSchema.Len(); a++ {
				gf, ghas := g.Cache().Get(rawcache.Key{Chunk: c, Attr: a})
				rf, rhas := ref.Cache().Get(rawcache.Key{Chunk: chunkOff + c, Attr: a})
				if ghas != rhas {
					t.Fatalf("%s: segment %d chunk %d attr %d: cached %v, reference %v", label, si, c, a, ghas, rhas)
				}
				if !ghas {
					continue
				}
				if gf.Rows != rf.Rows {
					t.Fatalf("%s: segment %d chunk %d attr %d: %d cached rows, reference %d", label, si, c, a, gf.Rows, rf.Rows)
				}
				for r := 0; r < gf.Rows; r++ {
					if gf.Value(r) != rf.Value(r) {
						t.Fatalf("%s: segment %d chunk %d attr %d row %d: cached %#v, reference %#v",
							label, si, c, a, r, gf.Value(r), rf.Value(r))
					}
				}
			}
		}
		chunkOff += nchunks
		fi, err := os.Stat(g.Path())
		if err != nil {
			t.Fatal(err)
		}
		byteOff += fi.Size()
	}
}

// sameSegmentStats compares the statistics of a chunk-aligned layout with
// the reference's. One segment saw the reference's chunks in the same
// order, so its Snapshot and 8-bucket Histogram of every attribute must be
// identical; several segments each sample their own rows, so only the
// observation counts must add up.
func sameSegmentStats(t *testing.T, label string, segs []*Segment, ref *Segment) {
	t.Helper()
	rc := ref.StatsCollector()
	for a := 0; a < testSchema.Len(); a++ {
		want, wok := rc.Snapshot(a)
		if len(segs) > 1 {
			var count, nulls int64
			for _, g := range segs {
				s, _ := g.StatsCollector().Snapshot(a)
				count, nulls = count+s.Count, nulls+s.Nulls
			}
			if count != want.Count || nulls != want.Nulls {
				t.Fatalf("%s: attr %d: %d values and %d nulls observed, reference %d and %d",
					label, a, count, nulls, want.Count, want.Nulls)
			}
			continue
		}
		gc := segs[0].StatsCollector()
		got, gok := gc.Snapshot(a)
		if gok != wok || got.Count != want.Count || got.Nulls != want.Nulls || !sameBits(got.Min, want.Min) ||
			!sameBits(got.Max, want.Max) || got.NDV != want.NDV || got.SampleSize != want.SampleSize {
			t.Fatalf("%s: attr %d: statistics %+v (%v), reference %+v (%v)", label, a, got, gok, want, wok)
		}
		gh, gerr := gc.Histogram(a, 8)
		wh, werr := rc.Histogram(a, 8)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: attr %d: histogram error %v, reference %v", label, a, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if len(gh.Bounds) != len(wh.Bounds) {
			t.Fatalf("%s: attr %d: %d histogram bounds, reference %d", label, a, len(gh.Bounds), len(wh.Bounds))
		}
		for i := range gh.Bounds {
			if !sameBits(gh.Bounds[i], wh.Bounds[i]) {
				t.Fatalf("%s: attr %d: histogram bound %d = %v, reference %v", label, a, i, gh.Bounds[i], wh.Bounds[i])
			}
		}
	}
}

// sameBits is bitwise value identity (NaN equal to NaN, -0 apart from 0).
func sameBits(a, b value.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// oracleLayout is one physical arrangement of the generated bytes.
type oracleLayout struct {
	name    string
	tbl     *Table
	aligned bool
	last    string // file that receives the append
	segRows []int  // rows per segment (aligned layouts)
}

func TestLayoutOracle(t *testing.T) {
	const seeds = 24
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d := genOracleData(rng)
			q := oracleQuery{filter: rng.Intn(2) == 0, drive: rng.Intn(3)}
			q.needed = [][]int{{0, 1, 2, 3, 4}, {2, 3}, {3, 0}, {4, 3, 1}}[rng.Intn(4)]
			if q.drive == 2 {
				q.needed = []int{0, 2, 3}
			}
			opts := InSituOptions()
			opts.ChunkRows = oracleChunk
			opts.OnError = []OnErrorPolicy{OnErrorNull, OnErrorSkip}[rng.Intn(2)]
			opts.MaxErrors = []int64{0, 0, 3}[rng.Intn(3)]
			withPar := func() Options {
				o := opts
				o.Parallelism = []int{1, 2, 8}[rng.Intn(3)]
				o.ShardAhead = 1 + rng.Intn(3)
				return o
			}

			dir := t.TempDir()
			write := func(name string, data []byte) string {
				p := filepath.Join(dir, name)
				if err := os.WriteFile(p, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return p
			}
			// split cuts the file after the given row counts into k files.
			split := func(prefix string, cuts []int) (paths []string, segRows []int) {
				prevRow, prevByte := 0, 0
				for i, cut := range append(cuts, len(d.rowEnds)) {
					end := prevByte
					if cut > 0 {
						end = d.rowEnds[cut-1]
					}
					paths = append(paths, write(fmt.Sprintf("%s-%d.csv", prefix, i), d.data[prevByte:end]))
					segRows = append(segRows, cut-prevRow)
					prevRow, prevByte = cut, end
				}
				return paths, segRows
			}
			nchunks := len(d.rowEnds) / oracleChunk
			alignedCuts := []int{oracleChunk * rng.Intn(nchunks+1), oracleChunk * rng.Intn(nchunks+1)}
			raggedCuts := []int{rng.Intn(len(d.rowEnds) + 1), rng.Intn(len(d.rowEnds) + 1)}
			for _, cuts := range [][]int{alignedCuts, raggedCuts} {
				if cuts[0] > cuts[1] {
					cuts[0], cuts[1] = cuts[1], cuts[0]
				}
			}

			refOpts := opts
			refOpts.Parallelism = 1
			refPath := write("ref.csv", d.data)
			ref, err := NewTable(refPath, testSchema, refOpts)
			if err != nil {
				t.Fatal(err)
			}
			var layouts []oracleLayout
			add := func(l oracleLayout, err error) {
				if err != nil {
					t.Fatal(err)
				}
				layouts = append(layouts, l)
			}
			{
				p := write("plain.csv", d.data)
				tbl, err := NewTable(p, testSchema, withPar())
				add(oracleLayout{name: "plain", tbl: tbl, aligned: true, last: p, segRows: []int{len(d.rowEnds)}}, err)
			}
			{
				paths, segRows := split("aligned", alignedCuts)
				tbl, err := NewShardedTable("aligned-*.csv", paths, testSchema, withPar())
				add(oracleLayout{name: "aligned", tbl: tbl, aligned: true, last: paths[2], segRows: segRows}, err)
			}
			{
				paths, _ := split("ragged", raggedCuts)
				tbl, err := NewShardedTable("ragged-*.csv", paths, testSchema, withPar())
				add(oracleLayout{name: "ragged", tbl: tbl, last: paths[2]}, err)
			}
			{
				p := write("ranges.csv", d.data)
				tbl, err := NewPartitionedTable(p, testSchema, withPar(), oraclePartBytes)
				add(oracleLayout{name: "ranges", tbl: tbl, last: p}, err)
			}

			for _, phase := range []string{"cold", "warm", "appended"} {
				if phase == "appended" {
					for _, p := range append([]string{refPath}, layoutFiles(layouts)...) {
						f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := f.Write(d.extra); err != nil {
							t.Fatal(err)
						}
						f.Close()
					}
					if _, err := ref.Refresh(); err != nil {
						t.Fatal(err)
					}
					for i := range layouts {
						if _, err := layouts[i].tbl.Refresh(); err != nil {
							t.Fatal(err)
						}
						if l := &layouts[i]; l.aligned {
							l.segRows[len(l.segRows)-1] += d.nextra
						}
					}
				}
				want := runOracleScan(t, ref, q)
				for _, l := range layouts {
					o := l.tbl.Options()
					label := fmt.Sprintf("%s %s par=%d ahead=%d on_error=%s max_errors=%d filter=%v drive=%d",
						phase, l.name, o.Parallelism, o.ShardAhead, o.OnError, o.MaxErrors, q.filter, q.drive)
					got := runOracleScan(t, l.tbl, q)
					if got.tooMany != want.tooMany {
						t.Fatalf("%s: too-many-errors=%v, reference %v", label, got.tooMany, want.tooMany)
					}
					if l.aligned {
						sameRows(t, label, got.rows, want.rows)
						if got.counters != want.counters {
							t.Fatalf("%s: counters %v, reference %v", label, got.counters, want.counters)
						}
						sameSegmentStructures(t, label, l.tbl.Segments(), l.segRows, ref.Segments()[0])
						sameSegmentStats(t, label, l.tbl.Segments(), ref.Segments()[0])
						continue
					}
					if want.tooMany {
						continue // the budget is crossed in a different chunk: prefixes differ
					}
					gotRows, wantRows := got.rows, want.rows
					if q.drive == 2 {
						// Float SUM/AVG depend on where chunks cut the rows; keys,
						// COUNT and the integer SUM do not.
						gotRows, wantRows = firstCols(gotRows, 3), firstCols(wantRows, 3)
					}
					sameRows(t, label, gotRows, wantRows)
					if got.counters[7] != want.counters[7] || got.counters[8] != want.counters[8] {
						t.Fatalf("%s: malformed/dropped %v, reference %v", label, got.counters[7:], want.counters[7:])
					}
				}
			}
		})
	}
}

func firstCols(rows [][]value.Value, n int) [][]value.Value {
	out := make([][]value.Value, len(rows))
	for i, r := range rows {
		out[i] = r[:n]
	}
	return out
}

func layoutFiles(ls []oracleLayout) []string {
	var out []string
	for _, l := range ls {
		out = append(out, l.last)
	}
	return out
}
