package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/faults"
	"nodb/internal/metrics"
	"nodb/internal/value"
)

// The per-table error-policy suite: on_error = null | skip | fail and
// max_errors must behave identically at any Parallelism, cold and warm, and
// count every event exactly once.

// dirtyCSV is a small hand-checked file: two conversion failures, one
// ragged row, and one legitimately empty field (a NULL, not an error).
const dirtyCSV = "1,a,1.5,1,true\n" +
	"x,b,2.5,2,true\n" + // id does not convert
	"3,c,zz,3,true\n" + // score does not convert
	"4,d\n" + // ragged: score, grp, flag missing
	"5,e,5.5,5,true\n" +
	",f,6.5,6,true\n" // empty id: a legitimate NULL

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// policyScan drains one scan under the given options, returning rows, the
// scan's breakdown, and the error (if any).
func policyScan(t *testing.T, tbl *Table, spec ScanSpec) ([][]value.Value, *metrics.Breakdown, error) {
	t.Helper()
	b := &metrics.Breakdown{}
	spec.B = b
	rows, _, err := faultCollect(tbl, spec)
	return rows, b, err
}

func TestOnErrorNullHandCase(t *testing.T) {
	path := writeFile(t, "dirty.csv", dirtyCSV)
	for _, par := range []int{1, 8} {
		tbl := newTable(t, path, Options{ChunkRows: 4, Parallelism: par, OnError: OnErrorNull})
		rows, b, err := policyScan(t, tbl, ScanSpec{Needed: []int{0, 2}})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		want := [][]value.Value{
			{value.Int(1), value.Float(1.5)},
			{value.Null(), value.Float(2.5)},
			{value.Int(3), value.Null()},
			{value.Int(4), value.Null()},
			{value.Int(5), value.Float(5.5)},
			{value.Null(), value.Float(6.5)},
		}
		if len(rows) != len(want) {
			t.Fatalf("par=%d: %d rows, want %d", par, len(rows), len(want))
		}
		for r := range want {
			for i := range want[r] {
				if !value.Equal(rows[r][i], want[r][i]) {
					t.Fatalf("par=%d row %d col %d: got %v, want %v", par, r, i, rows[r][i], want[r][i])
				}
			}
		}
		// Exactly three events: two conversion failures plus the ragged row
		// (counted once, not once per missing field). The empty id is a
		// plain NULL, never an event.
		if b.MalformedFields != 3 {
			t.Fatalf("par=%d: MalformedFields=%d, want 3", par, b.MalformedFields)
		}
		if b.RowsDropped != 0 {
			t.Fatalf("par=%d: RowsDropped=%d under on_error=null", par, b.RowsDropped)
		}
		if m, d := tbl.ErrorCounts(); m != 3 || d != 0 {
			t.Fatalf("par=%d: table counters (%d, %d), want (3, 0)", par, m, d)
		}
	}
}

func TestOnErrorSkipHandCase(t *testing.T) {
	path := writeFile(t, "dirty.csv", dirtyCSV)
	for _, par := range []int{1, 8} {
		tbl := newTable(t, path, Options{ChunkRows: 4, Parallelism: par, OnError: OnErrorSkip})
		rows, b, err := policyScan(t, tbl, ScanSpec{Needed: []int{0, 2}})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		want := [][]value.Value{
			{value.Int(1), value.Float(1.5)},
			{value.Int(5), value.Float(5.5)},
			{value.Null(), value.Float(6.5)}, // empty field is NULL, row kept
		}
		if len(rows) != len(want) {
			t.Fatalf("par=%d: %d rows, want %d: %v", par, len(rows), len(want), rows)
		}
		for r := range want {
			for i := range want[r] {
				if !value.Equal(rows[r][i], want[r][i]) {
					t.Fatalf("par=%d row %d col %d: got %v, want %v", par, r, i, rows[r][i], want[r][i])
				}
			}
		}
		if b.MalformedFields != 3 || b.RowsDropped != 3 {
			t.Fatalf("par=%d: events=%d dropped=%d, want 3 and 3", par, b.MalformedFields, b.RowsDropped)
		}
	}
}

func TestOnErrorFailHandCase(t *testing.T) {
	path := writeFile(t, "dirty.csv", dirtyCSV)
	for _, par := range []int{1, 8} {
		// ChunkRows 2 keeps the conversion failure (row 1) in a chunk before
		// the ragged row, so the first committed error is the malformed one.
		tbl := newTable(t, path, Options{ChunkRows: 2, Parallelism: par, OnError: OnErrorFail})
		_, _, err := policyScan(t, tbl, ScanSpec{Needed: []int{0, 2}})
		if !errors.Is(err, faults.ErrMalformed) {
			t.Fatalf("par=%d: want ErrMalformed, got %v", par, err)
		}
		// The failing scan commits nothing: the table's lifetime counters
		// stay clean.
		if m, d := tbl.ErrorCounts(); m != 0 || d != 0 {
			t.Fatalf("par=%d: failed scan leaked counters (%d, %d)", par, m, d)
		}
	}
	// A ragged row reached first reports the ragged class.
	ragged := writeFile(t, "ragged.csv", "1,a\n2,b,2.5,2,true\n")
	tbl := newTable(t, ragged, Options{ChunkRows: 4, OnError: OnErrorFail})
	_, _, err := policyScan(t, tbl, ScanSpec{Needed: []int{0, 2}})
	if !errors.Is(err, faults.ErrRagged) {
		t.Fatalf("want ErrRagged, got %v", err)
	}
}

// TestPolicyTouchesOnlyQueriedFields pins the selective semantics: errors
// live in fields the query materializes. A text-only projection over the
// same dirty file sees no events under any policy, and a zero-attribute
// scan (COUNT(*)) counts physical rows even under skip.
func TestPolicyTouchesOnlyQueriedFields(t *testing.T) {
	path := writeFile(t, "dirty.csv", dirtyCSV)
	for _, pol := range []OnErrorPolicy{OnErrorNull, OnErrorFail, OnErrorSkip} {
		tbl := newTable(t, path, Options{ChunkRows: 4, OnError: pol})
		rows, b, err := policyScan(t, tbl, ScanSpec{Needed: []int{1}})
		if err != nil {
			t.Fatalf("policy %v over clean column: %v", pol, err)
		}
		if len(rows) != 6 || b.MalformedFields != 0 || b.RowsDropped != 0 {
			t.Fatalf("policy %v: rows=%d events=%d dropped=%d, want 6/0/0",
				pol, len(rows), b.MalformedFields, b.RowsDropped)
		}
		rows, b, err = policyScan(t, tbl, ScanSpec{}) // COUNT(*): no attributes
		if err != nil {
			t.Fatalf("policy %v count scan: %v", pol, err)
		}
		if len(rows) != 6 || b.MalformedFields != 0 {
			t.Fatalf("policy %v: COUNT(*) saw %d rows, %d events", pol, len(rows), b.MalformedFields)
		}
	}
}

func TestMaxErrorsThreshold(t *testing.T) {
	path := writeFile(t, "dirty.csv", dirtyCSV) // exactly 3 events on attrs {0,2}
	for _, par := range []int{1, 8} {
		over := newTable(t, path, Options{ChunkRows: 2, Parallelism: par, OnError: OnErrorNull, MaxErrors: 2})
		_, _, err := policyScan(t, over, ScanSpec{Needed: []int{0, 2}})
		if !errors.Is(err, faults.ErrTooManyErrors) {
			t.Fatalf("par=%d: want ErrTooManyErrors with budget 2 < 3 events, got %v", par, err)
		}
		// Deterministic: a rerun on the same table fails identically (no
		// partially learned state shifts the threshold).
		_, _, err = policyScan(t, over, ScanSpec{Needed: []int{0, 2}})
		if !errors.Is(err, faults.ErrTooManyErrors) {
			t.Fatalf("par=%d warm rerun: want ErrTooManyErrors, got %v", par, err)
		}

		at := newTable(t, path, Options{ChunkRows: 2, Parallelism: par, OnError: OnErrorNull, MaxErrors: 3})
		rows, _, err := policyScan(t, at, ScanSpec{Needed: []int{0, 2}})
		if err != nil || len(rows) != 6 {
			t.Fatalf("par=%d: budget 3 == 3 events must pass: rows=%d err=%v", par, len(rows), err)
		}
	}
}

// TestMaxErrorsIsPerQueryNotPerSegment pins the error budget to the scan:
// three chunk-aligned shards carry two malformed fields each, so with
// max_errors = 4 the fifth event — in the third shard's first chunk — must
// fail the query at the same chunk, after the same rows, with the same
// committed-prefix structures as the shards' concatenation scanned as one
// file. (A budget kept per shard scan would tolerate all six.)
func TestMaxErrorsIsPerQueryNotPerSegment(t *testing.T) {
	const perShard = 3 * oracleChunk
	var all strings.Builder
	var shardData [3]strings.Builder
	for i := 0; i < 3*perShard; i++ {
		id := fmt.Sprint(i)
		if i%perShard == 5 || i%perShard == 2*oracleChunk+5 { // chunks 0 and 2 of every shard
			id = "x" + id
		}
		line := fmt.Sprintf("%s,n%d,%g,%d,true\n", id, i, float64(i)*0.25, i%7)
		all.WriteString(line)
		shardData[i/perShard].WriteString(line)
	}
	single := writeFile(t, "all.csv", all.String())
	var shards []string
	for i := range shardData {
		shards = append(shards, writeFile(t, fmt.Sprintf("shard-%d.csv", i), shardData[i].String()))
	}
	q := oracleQuery{needed: []int{0, 1, 2, 3, 4}}
	for _, par := range []int{1, 4} {
		opts := InSituOptions()
		opts.ChunkRows, opts.Parallelism, opts.MaxErrors = oracleChunk, par, 4
		sTbl := newTable(t, single, opts)
		shTbl := newShardedTable(t, shards, opts)
		for _, pass := range []string{"cold", "warm"} {
			label := fmt.Sprintf("par=%d %s", par, pass)
			want, got := runOracleScan(t, sTbl, q), runOracleScan(t, shTbl, q)
			if !want.tooMany || !got.tooMany {
				t.Fatalf("%s: too-many-errors single=%v sharded=%v, want both", label, want.tooMany, got.tooMany)
			}
			if len(got.rows) != 2*perShard {
				t.Fatalf("%s: served %d rows before failing, want the first two shards' %d", label, len(got.rows), 2*perShard)
			}
			sameRows(t, label, got.rows, want.rows)
			if got.counters != want.counters {
				t.Fatalf("%s: counters %v, single file %v", label, got.counters, want.counters)
			}
			sameSegmentStructures(t, label, shTbl.Segments(), []int{perShard, perShard, perShard}, sTbl.Segments()[0])
			sm, sd := sTbl.ErrorCounts()
			m, d := shTbl.ErrorCounts()
			if m != sm || d != sd {
				t.Fatalf("%s: cumulative error counts (%d, %d), single file (%d, %d)", label, m, d, sm, sd)
			}
		}
		if rc := shTbl.Segments()[2].RowCount(); rc != -1 {
			t.Fatalf("par=%d: the failing shard learned a row count (%d)", par, rc)
		}
	}
}

// genDirtyCSV builds a larger deterministic mixed-quality file and returns
// the path. Bad rows follow fixed strides so every configuration sees the
// same input.
func genDirtyCSV(t *testing.T, rows int) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		id := fmt.Sprint(i)
		score := fmt.Sprintf("%g", float64(i)*0.5)
		switch {
		case i%11 == 3: // ragged
			fmt.Fprintf(&sb, "%s,name-%d\n", id, i)
			continue
		case i%7 == 2:
			id = fmt.Sprintf("x%d", i) // id does not convert
		case i%13 == 5:
			score = "bad" // score does not convert
		case i%5 == 1:
			id = "" // legitimate NULL
		}
		fmt.Fprintf(&sb, "%s,name-%d,%s,%d,%t\n", id, i, score, i%7, i%3 != 0)
	}
	return writeFile(t, "gen-dirty.csv", sb.String())
}

// scanSignature reduces one scan to the fields every configuration must
// agree on: the rendered rows and the two policy counters.
func scanSignature(rows [][]value.Value, b *metrics.Breakdown) string {
	var sb strings.Builder
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				sb.WriteByte('|')
			}
			fmt.Fprintf(&sb, "%v", v)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "malformed=%d dropped=%d", b.MalformedFields, b.RowsDropped)
	return sb.String()
}

// TestPolicyMatrix is the cross-configuration equivalence property: for
// each policy, every Parallelism must produce identical rows and identical
// counters, cold and warm — including a pushed-down filter, whose skip
// semantics must not depend on worker interleaving.
func TestPolicyMatrix(t *testing.T) {
	path := genDirtyCSV(t, 3000)
	filter := rowFilter(func(row []value.Value) (bool, error) {
		// grp < 4, NULL-rejecting, over the Needed layout [id, score, grp].
		v := row[2]
		return v.K == value.KindInt && v.I < 4, nil
	})
	for _, pol := range []OnErrorPolicy{OnErrorNull, OnErrorSkip} {
		for _, filtered := range []bool{false, true} {
			t.Run(fmt.Sprintf("policy=%v/filter=%v", pol, filtered), func(t *testing.T) {
				want := ""
				for _, par := range []int{1, 8} {
					tbl := newTable(t, path, Options{
						ChunkRows: 128, Parallelism: par, OnError: pol,
						EnablePosMap: true, EnableCache: true, EnableStats: true,
					})
					for pass := 0; pass < 2; pass++ { // cold, then warm
						spec := ScanSpec{Needed: []int{0, 2, 3}}
						if filtered {
							spec.Filter = filter
							spec.FilterAttrs = []int{3}
						}
						rows, b, err := policyScan(t, tbl, spec)
						if err != nil {
							t.Fatalf("par=%d pass=%d: %v", par, pass, err)
						}
						sig := scanSignature(rows, b)
						if want == "" {
							want = sig
						} else if sig != want {
							t.Fatalf("par=%d pass=%d diverged from par=1 cold:\n%s\nvs\n%s",
								par, pass, tail(sig), tail(want))
						}
					}
					// Lifetime table counters accumulate once per scan.
					m, d := tbl.ErrorCounts()
					sm, sd := perScanCounts(want)
					if m != 2*sm || d != 2*sd {
						t.Fatalf("par=%d: table counters (%d,%d) after two scans of (%d,%d) events",
							par, m, d, sm, sd)
					}
				}
			})
		}
	}
}

// perScanCounts parses the trailing counter line of a scan signature.
func perScanCounts(sig string) (malformed, dropped int64) {
	i := strings.LastIndexByte(sig, '\n')
	fmt.Sscanf(sig[i+1:], "malformed=%d dropped=%d", &malformed, &dropped)
	return
}

// tail keeps a failure message readable for large signatures.
func tail(s string) string {
	if len(s) <= 400 {
		return s
	}
	return "…" + s[len(s)-400:]
}

// FuzzScanPolicies feeds arbitrary bytes — corrupt CSV, ragged lines,
// binary garbage — through the full tokenize → convert path under all
// three policies. Invariants: never a panic; null and skip never error;
// skip's kept rows plus its dropped count equal null's row count; fail
// either errors typed or agrees with null exactly.
func FuzzScanPolicies(f *testing.F) {
	f.Add([]byte("1,a,1.5,1,true\n2,b,2.5,2,false\n"))
	f.Add([]byte(dirtyCSV))
	f.Add([]byte("!!!GARBAGE!!!,@@\n,,,,,,\n\n\n"))
	f.Add([]byte("\x00\xff\xfe,\x01,,,\n1"))
	f.Add([]byte("1,a,1.5,1,true")) // no trailing newline
	f.Add(bytes.Repeat([]byte("9999999999999999999999,x,1e309,y,maybe\n"), 7))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.csv")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		needed := []int{0, 2, 4}
		scanWith := func(pol OnErrorPolicy, par int) ([][]value.Value, *metrics.Breakdown, error) {
			tbl, err := NewTable(path, testSchema, Options{ChunkRows: 32, Parallelism: par, OnError: pol})
			if err != nil {
				t.Fatalf("NewTable: %v", err)
			}
			b := &metrics.Breakdown{}
			rows, _, serr := faultCollect(tbl, ScanSpec{Needed: needed, B: b})
			return rows, b, serr
		}

		nullRows, nullB, err := scanWith(OnErrorNull, 1)
		if err != nil {
			t.Fatalf("on_error=null errored on %q: %v", data, err)
		}
		skipRows, skipB, err := scanWith(OnErrorSkip, 1)
		if err != nil {
			t.Fatalf("on_error=skip errored on %q: %v", data, err)
		}
		if len(skipRows)+int(skipB.RowsDropped) != len(nullRows) {
			t.Fatalf("skip kept %d + dropped %d != null's %d rows",
				len(skipRows), skipB.RowsDropped, len(nullRows))
		}
		_, _, err = scanWith(OnErrorFail, 1)
		if err != nil {
			if !errors.Is(err, faults.ErrMalformed) && !errors.Is(err, faults.ErrRagged) {
				t.Fatalf("on_error=fail returned an untyped error: %v", err)
			}
		} else if nullB.MalformedFields != 0 {
			t.Fatalf("fail succeeded but null counted %d events", nullB.MalformedFields)
		}

		// Parallel must agree with sequential on rows and counters.
		parRows, parB, err := scanWith(OnErrorNull, 4)
		if err != nil {
			t.Fatalf("parallel null scan errored: %v", err)
		}
		if len(parRows) != len(nullRows) || parB.MalformedFields != nullB.MalformedFields {
			t.Fatalf("parallel diverged: %d rows/%d events vs %d/%d",
				len(parRows), parB.MalformedFields, len(nullRows), nullB.MalformedFields)
		}
	})
}
