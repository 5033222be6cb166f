package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/value"
)

// aggTestSpec builds the pushdown used by the core-level tests:
// GROUP BY grp → COUNT(*), SUM(score), COUNT(DISTINCT name), MIN(id)
// over Needed = [id, name, score, grp].
func aggTestSpec() *AggPushdown {
	env := expr.NewEnv()
	env.Add("", "id", value.KindInt)
	env.Add("", "name", value.KindText)
	env.Add("", "score", value.KindFloat)
	env.Add("", "grp", value.KindInt)
	return &AggPushdown{
		Keys: []expr.Node{expr.Slot(env, 3)},
		Aggs: []AggCall{
			{Name: "COUNT", Star: true},
			{Name: "SUM", Arg: expr.Slot(env, 2)},
			{Name: "COUNT", Arg: expr.Slot(env, 1), Distinct: true},
			{Name: "MIN", Arg: expr.Slot(env, 0)},
		},
	}
}

// drainAggGroups runs one pushed-down aggregation scan and returns the
// finalized rows (key values then aggregate results) plus the breakdown.
func drainAggGroups(t *testing.T, tbl *Table, spec ScanSpec, push *AggPushdown) ([][]value.Value, *metrics.Breakdown) {
	t.Helper()
	if spec.B == nil {
		spec.B = &metrics.Breakdown{}
	}
	sc, err := tbl.NewScan(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if !sc.PushAgg(push) {
		t.Fatal("PushAgg rejected")
	}
	groups, err := sc.DrainAgg()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]value.Value
	for _, g := range groups {
		row := append([]value.Value{}, g.KeyVals...)
		for _, st := range g.States {
			row = append(row, st.Result())
		}
		out = append(out, row)
	}
	return out, spec.B
}

// TestAggPushdownEquivalenceAcrossParallelism is the core acceptance test
// for worker-side partial aggregation: at Parallelism 1, 2 and 8, cold and
// warm, the merged groups — values, group order, and bitwise float results
// — and the deterministic counters must be identical.
func TestAggPushdownEquivalenceAcrossParallelism(t *testing.T) {
	var want [][]value.Value
	var wantPartials int64
	for _, par := range []int{1, 2, 8} {
		path, _ := genCSV(t, 3000)
		opts := InSituOptions()
		opts.ChunkRows = 128
		opts.Parallelism = par
		tbl := newTable(t, path, opts)

		cold, cb := drainAggGroups(t, tbl, ScanSpec{Needed: []int{0, 1, 2, 3}}, aggTestSpec())
		warm, _ := drainAggGroups(t, tbl, ScanSpec{Needed: []int{0, 1, 2, 3}}, aggTestSpec())

		if len(cold) != 7 {
			t.Fatalf("par=%d: groups=%d, want 7", par, len(cold))
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("par=%d: warm scan changed the aggregate:\ncold=%v\nwarm=%v", par, cold, warm)
		}
		if cb.RowsScanned != 3000 {
			t.Errorf("par=%d: RowsScanned=%d", par, cb.RowsScanned)
		}
		if cb.PartialGroups == 0 {
			t.Errorf("par=%d: no partial groups folded", par)
		}
		if want == nil {
			want, wantPartials = cold, cb.PartialGroups
			continue
		}
		if !reflect.DeepEqual(cold, want) {
			t.Errorf("par=%d: groups differ from par=1:\n%v\nvs\n%v", par, cold, want)
		}
		if cb.PartialGroups != wantPartials {
			t.Errorf("par=%d: PartialGroups=%d, par=1 folded %d", par, cb.PartialGroups, wantPartials)
		}
	}
}

// TestAggPushdownMatchesRowLoop cross-checks the folded result against a
// straightforward row-loop aggregation over the same scan output, with a
// pushed-down filter in place (selective tuple formation feeding the fold).
func TestAggPushdownMatchesRowLoop(t *testing.T) {
	path, _ := genCSV(t, 2000)
	opts := InSituOptions()
	opts.ChunkRows = 256
	opts.Parallelism = 4
	tbl := newTable(t, path, opts)

	filter := rowFilter(func(row []value.Value) (bool, error) { return row[0].I%3 != 0, nil })
	spec := ScanSpec{Needed: []int{0, 1, 2, 3}, FilterAttrs: []int{0}, Filter: filter}
	got, _ := drainAggGroups(t, tbl, spec, aggTestSpec())

	// Reference: plain row scan plus manual grouping in row order.
	ref := map[int64]*struct {
		n     int64
		sum   float64
		names map[string]bool
		min   int64
	}{}
	var order []int64
	rows := collect(t, newTable(t, path, opts), ScanSpec{Needed: []int{0, 1, 2, 3}, FilterAttrs: []int{0}, Filter: filter})
	for _, r := range rows {
		g := r[3].I
		e := ref[g]
		if e == nil {
			e = &struct {
				n     int64
				sum   float64
				names map[string]bool
				min   int64
			}{names: map[string]bool{}, min: 1 << 62}
			ref[g] = e
			order = append(order, g)
		}
		e.n++
		e.sum += r[2].F
		e.names[r[1].S] = true
		if r[0].I < e.min {
			e.min = r[0].I
		}
	}
	if len(got) != len(order) {
		t.Fatalf("groups=%d, want %d", len(got), len(order))
	}
	for i, g := range order {
		e := ref[g]
		row := got[i]
		if row[0].I != g || row[1].I != e.n || int64(len(e.names)) != row[3].I || row[4].I != e.min {
			t.Errorf("group %d: got %v, want n=%d distinct=%d min=%d", g, row, e.n, len(e.names), e.min)
		}
		diff := row[2].F - e.sum
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9*(1+e.sum) {
			t.Errorf("group %d: SUM=%v, want ~%v", g, row[2].F, e.sum)
		}
	}
}

// TestAggPushdownEmptyAndGlobal covers the edges: an empty file folds zero
// groups (the consumer supplies the empty global row), and a keyless
// pushdown aggregates the whole input into one group.
func TestAggPushdownEmptyAndGlobal(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.csv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	tbl := newTable(t, empty, InSituOptions())
	groups, _ := drainAggGroups(t, tbl, ScanSpec{Needed: []int{0, 1, 2, 3}}, aggTestSpec())
	if len(groups) != 0 {
		t.Errorf("empty input folded %d groups", len(groups))
	}

	path, _ := genCSV(t, 500)
	opts := InSituOptions()
	opts.ChunkRows = 64
	opts.Parallelism = 4
	env := expr.NewEnv()
	env.Add("", "id", value.KindInt)
	global := &AggPushdown{Aggs: []AggCall{
		{Name: "COUNT", Star: true},
		{Name: "SUM", Arg: expr.Slot(env, 0)},
	}}
	got, _ := drainAggGroups(t, newTable(t, path, opts), ScanSpec{Needed: []int{0}}, global)
	if len(got) != 1 || got[0][0].I != 500 || got[0][1].I != 500*499/2 {
		t.Errorf("global aggregate=%v", got)
	}
}

// TestAggPushdownGates checks the refusal conditions: a scan that already
// produced data, a zero-attribute metadata scan, and DrainAgg without a
// prior PushAgg.
func TestAggPushdownGates(t *testing.T) {
	path, _ := genCSV(t, 300)
	tbl := newTable(t, path, InSituOptions())

	var b metrics.Breakdown
	sc, err := tbl.NewScan(ScanSpec{Needed: []int{0}, B: &b})
	if err != nil {
		t.Fatal(err)
	}
	rc := rowsOf(sc)
	defer sc.Close()
	if _, ok, _ := rc.Next(); !ok {
		t.Fatal("no rows")
	}
	if sc.PushAgg(aggTestSpec()) {
		t.Error("PushAgg accepted on a started scan")
	}
	if _, err := sc.DrainAgg(); err == nil {
		t.Error("DrainAgg without PushAgg succeeded")
	}

	// Zero-attribute COUNT(*) scan keeps its metadata fast path.
	sc2, err := tbl.NewScan(ScanSpec{Needed: nil, B: &b})
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.Close()
	if sc2.PushAgg(&AggPushdown{Aggs: []AggCall{{Name: "COUNT", Star: true}}}) {
		t.Error("PushAgg accepted on a zero-attribute scan")
	}
}

// TestAggPushdownStructuresStillPopulate checks that a pushed-down
// aggregation scan keeps its side effects: the first aggregate query also
// learns the positional map, fills the cache and observes statistics, so
// later queries get the adaptive speedups.
func TestAggPushdownStructuresStillPopulate(t *testing.T) {
	path, _ := genCSV(t, 1500)
	opts := InSituOptions()
	opts.ChunkRows = 128
	opts.Parallelism = 4
	tbl := newTable(t, path, opts)

	if _, b := drainAggGroups(t, tbl, ScanSpec{Needed: []int{0, 1, 2, 3}}, aggTestSpec()); b.CacheHitFields != 0 {
		t.Errorf("cold scan claims cache hits: %d", b.CacheHitFields)
	}
	if tbl.RowCount() != 1500 {
		t.Errorf("row count not learned: %d", tbl.RowCount())
	}
	if tbl.Segments()[0].pm.Stats().UsedBytes == 0 {
		t.Error("positional map not populated")
	}
	if _, b := drainAggGroups(t, tbl, ScanSpec{Needed: []int{0, 1, 2, 3}}, aggTestSpec()); b.CacheHitFields == 0 {
		t.Error("warm scan served nothing from cache")
	}
}
