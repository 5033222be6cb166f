package nodb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// boundaryA is one row of the probe-side table a: id, a nullable join key
// k and a low-cardinality text v.
type boundaryA struct {
	id    int64
	k     int64
	kNull bool
	v     string
}

// boundaryB is one row of the build-side table b: a nullable key k and w.
type boundaryB struct {
	k     int64
	kNull bool
	w     int64
}

func boundaryData() ([]boundaryA, []boundaryB) {
	var as []boundaryA
	for i := int64(0); i < 200; i++ {
		// Every ninth key is NULL; keys 10..12 have no partner in b.
		as = append(as, boundaryA{id: i, k: i % 13, kNull: i%9 == 0, v: fmt.Sprintf("v%d", i%3)})
	}
	var bs []boundaryB
	for j := int64(0); j < 10; j++ {
		bs = append(bs, boundaryB{k: j, w: j * 10})
	}
	bs = append(bs, boundaryB{kNull: true, w: 999})
	return as, bs
}

func (r boundaryA) key() any {
	if r.kNull {
		return nil
	}
	return r.k
}

// boundaryCase is one query and its naive reference. ordered cases compare
// row order too; the others compare as multisets.
type boundaryCase struct {
	q       string
	ordered bool
	ref     func(as []boundaryA, bs []boundaryB) [][]any
}

// equiJoin lists the (a, b) pairs of a JOIN b ON a.k = b.k in probe order.
func equiJoin(as []boundaryA, bs []boundaryB, keep func(boundaryA) bool) [][2]int {
	var out [][2]int
	for i, a := range as {
		if !keep(a) || a.kNull {
			continue
		}
		for j, b := range bs {
			if !b.kNull && b.k == a.k {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

func every(boundaryA) bool       { return true }
func twentieth(a boundaryA) bool { return a.id%20 == 0 }

func boundaryCases() []boundaryCase {
	ids := func(as []boundaryA, keep func(boundaryA) bool) [][]any {
		var out [][]any
		for _, a := range as {
			if keep(a) {
				out = append(out, []any{a.id})
			}
		}
		return out
	}
	window := func(rows [][]any, off, lim int) [][]any {
		rows = rows[min(off, len(rows)):]
		return rows[:min(lim, len(rows))]
	}
	return []boundaryCase{
		{"SELECT id FROM a WHERE id >= 3 LIMIT 10 OFFSET 5", true, func(as []boundaryA, _ []boundaryB) [][]any {
			return window(ids(as, func(a boundaryA) bool { return a.id >= 3 }), 5, 10)
		}},
		{"SELECT id FROM a LIMIT 0", true, func([]boundaryA, []boundaryB) [][]any { return nil }},
		{"SELECT id FROM a WHERE id % 20 = 0 LIMIT 3 OFFSET 1", true, func(as []boundaryA, _ []boundaryB) [][]any {
			return window(ids(as, twentieth), 1, 3)
		}},
		{"SELECT id, v FROM a ORDER BY id DESC LIMIT 4 OFFSET 6", true, func(as []boundaryA, _ []boundaryB) [][]any {
			var out [][]any
			for i := len(as) - 1; i >= 0; i-- {
				out = append(out, []any{as[i].id, as[i].v})
			}
			return window(out, 6, 4)
		}},
		{"SELECT id FROM a WHERE id % 20 = 0 ORDER BY id DESC", true, func(as []boundaryA, _ []boundaryB) [][]any {
			out := ids(as, twentieth)
			for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
				out[i], out[j] = out[j], out[i]
			}
			return out
		}},
		{"SELECT DISTINCT v FROM a", false, distinctV(every)},
		{"SELECT DISTINCT v FROM a WHERE id % 20 = 0", false, distinctV(twentieth)},
		{"SELECT k, COUNT(*) FROM a WHERE id % 20 = 0 GROUP BY k", false, func(as []boundaryA, _ []boundaryB) [][]any {
			counts := map[any]int64{}
			var keys []any
			for _, a := range as {
				if twentieth(a) {
					if _, seen := counts[a.key()]; !seen {
						keys = append(keys, a.key())
					}
					counts[a.key()]++
				}
			}
			var out [][]any
			for _, k := range keys {
				out = append(out, []any{k, counts[k]})
			}
			return out
		}},
		{"SELECT a.k, COUNT(*) FROM a JOIN b ON a.k = b.k WHERE a.id % 20 = 0 GROUP BY a.k", false, func(as []boundaryA, bs []boundaryB) [][]any {
			counts := map[int64]int64{}
			var keys []int64
			for _, p := range equiJoin(as, bs, twentieth) {
				k := as[p[0]].k
				if _, seen := counts[k]; !seen {
					keys = append(keys, k)
				}
				counts[k]++
			}
			var out [][]any
			for _, k := range keys {
				out = append(out, []any{k, counts[k]})
			}
			return out
		}},
		{"SELECT a.id, b.w FROM a JOIN b ON a.k = b.k", false, joinRows(every)},
		{"SELECT a.id, b.w FROM a JOIN b ON a.k = b.k WHERE a.id % 20 = 0", false, joinRows(twentieth)},
		{"SELECT a.id, b.w FROM a JOIN b ON a.k = b.k WHERE a.id % 20 = 0 ORDER BY a.id DESC", true, func(as []boundaryA, bs []boundaryB) [][]any {
			out := joinRows(twentieth)(as, bs)
			sort.SliceStable(out, func(i, j int) bool { return out[i][0].(int64) > out[j][0].(int64) })
			return out
		}},
		{"SELECT a.id FROM a JOIN b ON a.k = b.k WHERE a.id % 20 = 0 LIMIT 2", true, func(as []boundaryA, bs []boundaryB) [][]any {
			var out [][]any
			for _, p := range equiJoin(as, bs, twentieth) {
				out = append(out, []any{as[p[0]].id})
			}
			return window(out, 0, 2)
		}},
		{"SELECT a.id FROM a JOIN b ON a.k = b.k WHERE a.id + b.w > 150", false, func(as []boundaryA, bs []boundaryB) [][]any {
			var out [][]any
			for _, p := range equiJoin(as, bs, every) {
				if as[p[0]].id+bs[p[1]].w > 150 {
					out = append(out, []any{as[p[0]].id})
				}
			}
			return out
		}},
		{"SELECT a.id, b.w FROM a JOIN b ON a.k < b.k WHERE a.id % 20 = 0 AND b.w < 30", false, func(as []boundaryA, bs []boundaryB) [][]any {
			var out [][]any
			for _, a := range as {
				for _, b := range bs {
					if twentieth(a) && b.w < 30 && !a.kNull && !b.kNull && a.k < b.k {
						out = append(out, []any{a.id, b.w})
					}
				}
			}
			return out
		}},
		{"SELECT a.id, b.w FROM a LEFT JOIN b ON a.k = b.k", false, func(as []boundaryA, bs []boundaryB) [][]any {
			var out [][]any
			for _, a := range as {
				matched := false
				for _, b := range bs {
					if !a.kNull && !b.kNull && a.k == b.k {
						out = append(out, []any{a.id, b.w})
						matched = true
					}
				}
				if !matched {
					out = append(out, []any{a.id, nil})
				}
			}
			return out
		}},
		{"SELECT a.id, b.w FROM a LEFT JOIN b ON a.k > b.w + 100", false, func(as []boundaryA, _ []boundaryB) [][]any {
			var out [][]any
			for _, a := range as {
				out = append(out, []any{a.id, nil}) // keys stay below 13: no match
			}
			return out
		}},
	}
}

func distinctV(keep func(boundaryA) bool) func([]boundaryA, []boundaryB) [][]any {
	return func(as []boundaryA, _ []boundaryB) [][]any {
		seen := map[string]bool{}
		var out [][]any
		for _, a := range as {
			if keep(a) && !seen[a.v] {
				seen[a.v] = true
				out = append(out, []any{a.v})
			}
		}
		return out
	}
}

func joinRows(keep func(boundaryA) bool) func([]boundaryA, []boundaryB) [][]any {
	return func(as []boundaryA, bs []boundaryB) [][]any {
		var out [][]any
		for _, p := range equiJoin(as, bs, keep) {
			out = append(out, []any{as[p[0]].id, bs[p[1]].w})
		}
		return out
	}
}

func renderRows(rows [][]any, ordered bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r...)
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// TestBatchBoundaries runs operator chains over chunks of 1, 7 and 64 rows
// — LIMIT/OFFSET spanning batches, LIMIT 0, chunks the pushed filter
// empties flowing into Limit/Distinct/Sort/HashAgg/both joins, NULL join
// keys, LEFT OUTER rows without a match, an early Close — and compares
// each result with the row-evaluator plan and a naive Go reference.
func TestBatchBoundaries(t *testing.T) {
	as, bs := boundaryData()
	dir := t.TempDir()
	var sa, sb strings.Builder
	for _, a := range as {
		k := ""
		if !a.kNull {
			k = fmt.Sprint(a.k)
		}
		fmt.Fprintf(&sa, "%d,%s,%s\n", a.id, k, a.v)
	}
	for _, b := range bs {
		k := ""
		if !b.kNull {
			k = fmt.Sprint(b.k)
		}
		fmt.Fprintf(&sb, "%s,%d\n", k, b.w)
	}
	pa, pb := filepath.Join(dir, "a.csv"), filepath.Join(dir, "b.csv")
	if err := os.WriteFile(pa, []byte(sa.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pb, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, chunk := range []int{1, 7, 64} {
		for _, par := range []int{1, 3} {
			open := func(noVec bool) *DB {
				openDB := Open
				if noVec {
					openDB = OpenRowEval
				}
				db, err := openDB(Config{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				opts := &RawOptions{ChunkRows: chunk, Parallelism: par}
				if err := db.RegisterRaw("a", pa, "id:int,k:int,v:text", opts); err != nil {
					t.Fatal(err)
				}
				if err := db.RegisterRaw("b", pb, "k:int,w:int", opts); err != nil {
					t.Fatal(err)
				}
				return db
			}
			vecDB, rowDB := open(false), open(true)
			for _, c := range boundaryCases() {
				label := fmt.Sprintf("chunk=%d par=%d %q", chunk, par, c.q)
				got, err := vecDB.Query(c.q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				rowRes, err := rowDB.Query(c.q)
				if err != nil {
					t.Fatalf("%s (row evaluator): %v", label, err)
				}
				vec, row := renderRows(got.Rows, true), renderRows(rowRes.Rows, true)
				if strings.Join(vec, "\n") != strings.Join(row, "\n") {
					t.Fatalf("%s: vectorized and row-evaluator plans differ:\n%v\n%v", label, vec, row)
				}
				want := renderRows(c.ref(as, bs), c.ordered)
				if g := renderRows(got.Rows, c.ordered); strings.Join(g, "\n") != strings.Join(want, "\n") {
					t.Fatalf("%s:\n got %v\nwant %v", label, g, want)
				}
			}

			// An early Close after the first row releases the plan cleanly
			// and leaves the tables answering full queries.
			const q = "SELECT a.id, b.w FROM a JOIN b ON a.k = b.k"
			rows, err := vecDB.QueryContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !rows.Next() {
				t.Fatalf("chunk=%d par=%d: no first row: %v", chunk, par, rows.Err())
			}
			if err := rows.Close(); err != nil {
				t.Fatalf("chunk=%d par=%d: early Close: %v", chunk, par, err)
			}
			if rows.Next() {
				t.Fatalf("chunk=%d par=%d: Next after Close", chunk, par)
			}
			res, err := vecDB.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want := renderRows(joinRows(every)(as, bs), false)
			if g := renderRows(res.Rows, false); strings.Join(g, "\n") != strings.Join(want, "\n") {
				t.Fatalf("chunk=%d par=%d: rerun after early Close:\n got %v\nwant %v", chunk, par, g, want)
			}
		}
	}
}
