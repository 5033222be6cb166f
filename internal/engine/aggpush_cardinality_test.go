package engine

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/core"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/schema"
	"nodb/internal/value"
)

// Columns of the cardinality table: ki, kd, kt and kf carry the same group
// number k as INT, DATE, TEXT and FLOAT (each NULL on its own rows); v holds
// dyadic floats, whose sums are exact in any order, x inexact ones.
const (
	cardRows      = 4000
	cardChunkRows = 64
)

// cardTable writes and registers a table whose keys take card values. Keys
// card/2 and up first appear in the last quarter of the rows, so late chunks
// open groups the early ones never saw.
func cardTable(t *testing.T, card, par int) *core.Table {
	t.Helper()
	nullField := func(i, every int, s string) string {
		if i%every == 0 {
			return ""
		}
		return s
	}
	var sb strings.Builder
	for i := 0; i < cardRows; i++ {
		k := (i * 7919) % card
		if i < cardRows*3/4 {
			k %= max(card/2, 1)
		}
		w := nullField(i, 11, fmt.Sprint(i%37))
		fmt.Fprintf(&sb, "%d,%s,%s,%s,%s,%g,%s,%g\n", i,
			nullField(i, 97, fmt.Sprint(k)),
			nullField(i, 89, value.FormatDate(int64(k))),
			nullField(i, 83, fmt.Sprintf("t%03d", k)),
			nullField(i, 79, fmt.Sprint(float64(k)*0.5)),
			float64(i%1000)*0.25, w, float64(i)*0.1)
	}
	path := filepath.Join(t.TempDir(), "card.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	sch := schema.MustNew([]schema.Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "ki", Kind: value.KindInt},
		{Name: "kd", Kind: value.KindDate},
		{Name: "kt", Kind: value.KindText},
		{Name: "kf", Kind: value.KindFloat},
		{Name: "v", Kind: value.KindFloat},
		{Name: "w", Kind: value.KindInt},
		{Name: "x", Kind: value.KindFloat},
	})
	opts := core.InSituOptions()
	opts.ChunkRows = cardChunkRows
	opts.Parallelism = par
	tbl, err := core.NewTable(path, sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// intOrDate keys a row on its INT key, as a DATE on even ids: its groups
// include Int(2) and Date(2), which must stay apart.
type intOrDate struct{ id, k expr.Node }

func (n intOrDate) Eval(row []value.Value) (value.Value, error) {
	id, _ := n.id.Eval(row)
	k, _ := n.k.Eval(row)
	if k.K == value.KindInt && id.I%2 == 0 {
		return value.Date(k.I), nil
	}
	return k, nil
}

func (intOrDate) Kind() value.Kind { return value.KindNull }

// sameBits reports whether two values are the same kind and the same bits.
func sameBits(a, b value.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestAggPushdownMatchesPlainAtCardinality checks the pushed-down fold
// against the plain HashAgg row loop over the same scan, at key
// cardinalities from one group to more groups than a chunk has rows, for
// every key shape (the INT/DATE table, the encoded path, composite keys,
// NULL keys). With 64-row chunks there are more chunks than the window, so
// outputs and their partial states recycle. Groups, their order and every
// result must match bit for bit, cold and warm; PartialGroups must count
// each chunk's distinct keys; and all of it must be equal at Parallelism 1,
// 2 and 8. The inexact SUM(x) depends on the fold's chunking, so it is
// compared bit for bit across runs and within 1e-9 against the row loop.
func TestAggPushdownMatchesPlainAtCardinality(t *testing.T) {
	env := expr.NewEnv()
	for _, c := range []struct {
		name string
		kind value.Kind
	}{{"id", value.KindInt}, {"ki", value.KindInt}, {"kd", value.KindDate}, {"kt", value.KindText},
		{"kf", value.KindFloat}, {"v", value.KindFloat}, {"w", value.KindInt}, {"x", value.KindFloat}} {
		env.Add("", c.name, c.kind)
	}
	slot := func(i int) expr.Node { return expr.Slot(env, i) }
	aggs := []AggSpec{
		{Name: "COUNT", Star: true},
		{Name: "COUNT", Arg: slot(6)},
		{Name: "SUM", Arg: slot(5)},
		{Name: "AVG", Arg: slot(5)},
		{Name: "MIN", Arg: slot(6)},
		{Name: "MAX", Arg: slot(3)},
		{Name: "SUM", Arg: slot(5), Distinct: true},
		{Name: "COUNT", Arg: slot(6), Distinct: true},
		{Name: "SUM", Arg: slot(7)}, // inexact: the last column
	}
	keyShapes := []struct {
		name string
		keys []expr.Node
	}{
		{"int", []expr.Node{slot(1)}},
		{"date", []expr.Node{slot(2)}},
		{"text", []expr.Node{slot(3)}},
		{"float", []expr.Node{slot(4)}},
		{"int,text", []expr.Node{slot(1), slot(3)}},
		{"int|date", []expr.Node{intOrDate{id: slot(0), k: slot(1)}}},
	}
	needed := []int{0, 1, 2, 3, 4, 5, 6, 7}

	// run aggregates one scan of tbl by keys, pushed down or not.
	run := func(tbl *core.Table, keys []expr.Node, push bool) ([][]value.Value, int64) {
		t.Helper()
		var b metrics.Breakdown
		scan, err := NewRawScan(tbl, core.ScanSpec{Needed: needed, B: &b})
		if err != nil {
			t.Fatal(err)
		}
		agg := NewHashAgg(scan, keys, aggs, &b)
		if push && !agg.TryPushdown() {
			t.Fatal("pushdown rejected on a bare RawScan")
		}
		return drain(t, agg), b.PartialGroups
	}
	// chunkGroups counts the distinct keys of every chunk, summed: what the
	// workers' folds must report as PartialGroups.
	chunkGroups := func(tbl *core.Table, keys []expr.Node) int64 {
		t.Helper()
		scan, err := NewRawScan(tbl, core.ScanSpec{Needed: needed, B: &metrics.Breakdown{}})
		if err != nil {
			t.Fatal(err)
		}
		defer scan.Close()
		var n int64
		var seen map[string]bool
		row, kv := 0, make([]value.Value, len(keys))
		err = ForEachBatchRow(scan, func(r []value.Value) error {
			if row%cardChunkRows == 0 {
				seen = map[string]bool{}
			}
			row++
			for i, k := range keys {
				kv[i], _ = k.Eval(r)
			}
			key := string(value.AppendGroupKey(nil, kv))
			if !seen[key] {
				seen[key] = true
				n++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// same compares two results bit for bit; loose lets the last column,
	// SUM(x), differ by rounding.
	same := func(a, b [][]value.Value, loose bool) string {
		if len(a) != len(b) {
			return fmt.Sprintf("%d groups vs %d", len(a), len(b))
		}
		for i := range a {
			for j := range a[i] {
				x, y := a[i][j], b[i][j]
				if loose && j == len(a[i])-1 && x.K == value.KindFloat && y.K == value.KindFloat &&
					math.Abs(x.F-y.F) <= 1e-9*math.Abs(y.F) {
					continue
				}
				if !sameBits(x, y) {
					return fmt.Sprintf("group %d col %d: %#v vs %#v", i, j, x, y)
				}
			}
		}
		return ""
	}

	for _, card := range []int{1, 16, 1000, 3 * cardChunkRows} {
		for _, ks := range keyShapes {
			var want [][]value.Value
			var wantPartials int64
			for _, par := range []int{1, 2, 8} {
				tbl := cardTable(t, card, par)
				cold, coldN := run(tbl, ks.keys, true)
				warm, warmN := run(tbl, ks.keys, true)
				plain, _ := run(tbl, ks.keys, false)
				where := fmt.Sprintf("card=%d key=%s par=%d", card, ks.name, par)
				if msg := same(cold, plain, true); msg != "" {
					t.Fatalf("%s: cold pushdown vs row loop: %s", where, msg)
				}
				if msg := same(warm, cold, false); msg != "" {
					t.Fatalf("%s: warm vs cold pushdown: %s", where, msg)
				}
				if n := chunkGroups(tbl, ks.keys); coldN != n || warmN != n {
					t.Fatalf("%s: PartialGroups cold=%d warm=%d, chunks hold %d distinct keys", where, coldN, warmN, n)
				}
				if want == nil {
					want, wantPartials = cold, coldN
					if len(want) < card*9/10 { // NULL keys hide a few late keys
						t.Fatalf("%s: %d groups for %d keys", where, len(want), card)
					}
					continue
				}
				if msg := same(cold, want, false); msg != "" {
					t.Fatalf("%s: differs from par=1: %s", where, msg)
				}
				if coldN != wantPartials {
					t.Fatalf("%s: PartialGroups=%d, par=1 folded %d", where, coldN, wantPartials)
				}
			}
		}
	}
}
