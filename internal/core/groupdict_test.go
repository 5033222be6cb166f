package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/schema"
	"nodb/internal/value"
)

// TestIntTableMatchesMap checks the INT-key table against a Go map over
// keys that cluster, repeat, go negative and force several growths.
func TestIntTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab intTable
	ref := map[int64]int32{}
	for i := 0; i < 20000; i++ {
		var k int64
		switch i % 3 {
		case 0:
			k = int64(i % 700)
		case 1:
			k = -rng.Int63n(1 << 40)
		default:
			k = int64(i) << 32
		}
		want, ok := ref[k]
		if !ok {
			want = -1
		}
		if got := tab.get(k); got != want {
			t.Fatalf("get(%d)=%d, want %d", k, got, want)
		}
		if !ok {
			ref[k] = int32(len(ref))
			tab.put(k, ref[k])
		}
	}
	if tab.n != len(ref) || 2*tab.n > len(tab.slots) {
		t.Errorf("%d keys in %d slots, the map holds %d", tab.n, len(tab.slots), len(ref))
	}
}

// TestGroupDictKeyIdentity pins which keys share an id: a single INT or
// DATE key takes the int table, the other kind and NULL stay apart from it,
// and composite and keyless dictionaries key as value.AppendGroupKey does.
func TestGroupDictKeyIdentity(t *testing.T) {
	one := func(vs ...value.Value) []value.Value { return vs }
	d := newGroupDict(1)
	keys := [][]value.Value{
		one(value.Date(2)), one(value.Int(2)), one(value.Null()), one(value.Date(-2)),
		one(value.Int(3)), one(value.Text("2")), one(value.Float(2)),
	}
	for i, k := range keys {
		if id := d.find(k, ""); id != -1 {
			t.Fatalf("%v: found id %d before it was added", k, id)
		}
		if id := d.add(k, ""); id != int32(i) {
			t.Fatalf("%v: id %d, want %d", k, id, i)
		}
	}
	for i, k := range keys {
		if id := d.find(one(k[0]), ""); id != int32(i) {
			t.Errorf("%v: id %d, want %d", k, id, i)
		}
		enc := string(value.AppendGroupKey(nil, k))
		if d.keys[i] != enc {
			t.Errorf("%v: key %q, want %q", k, d.keys[i], enc)
		}
		if id := d.find(k, enc); id != int32(i) {
			t.Errorf("%v by its encoding: id %d, want %d", k, id, i)
		}
	}

	pair := newGroupDict(2)
	a, b := one(value.Int(1), value.Text("x")), one(value.Int(1), value.Null())
	pair.add(a, "")
	pair.add(b, "")
	if pair.find(a, "") != 0 || pair.find(b, "") != 1 || pair.find(one(value.Int(2), value.Text("x")), "") != -1 {
		t.Error("composite keys resolve to the wrong ids")
	}

	none := newGroupDict(0)
	if none.find(nil, "") != -1 || none.add(nil, "") != 0 || none.find(nil, "") != 0 {
		t.Error("the keyless dictionary does not hold exactly one group")
	}
}

// allocsTable writes rows of (id, g, u, v): g has 1 000 INT groups, u 500
// TEXT groups.
func allocsTable(t *testing.T, rows int) *Table {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%d,user-%d,%g\n", i, (i*7)%1000, i%500, float64(i%64)*0.5)
	}
	path := filepath.Join(t.TempDir(), "allocs.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	sch := schema.MustNew([]schema.Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "g", Kind: value.KindInt},
		{Name: "u", Kind: value.KindText},
		{Name: "v", Kind: value.KindFloat},
	})
	opts := InSituOptions()
	opts.ChunkRows = 256 // TestAggPushdownAllocsFlat's chunkRows
	opts.Parallelism = 1
	tbl, err := NewTable(path, sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestAggPushdownAllocsFlat pins the warm pushed-down GROUP BY: folding a
// row into an existing partial group allocates nothing, partial states
// recycle with their outputs, and a TEXT value read from the cache shares
// its fragment's arena. The fold allocates per distinct key and per chunk
// output the scan holds at once, so over 1 000 INT groups and over 500 TEXT
// groups 20k rows allocate what 10k rows do, but for the scan's own two
// allocations per chunk, outside the fold: the chunk's private breakdown
// and the FileInfo of the per-chunk file check.
func TestAggPushdownAllocsFlat(t *testing.T) {
	const chunkRows, perChunk = 256, 2
	env := expr.NewEnv()
	env.Add("", "g", value.KindInt)
	env.Add("", "u", value.KindText)
	env.Add("", "v", value.KindFloat)
	for _, c := range []struct {
		name string
		key  int
	}{{"int", 0}, {"text", 1}} {
		allocs := func(n int) float64 {
			tbl := allocsTable(t, n)
			scan := func() {
				sc, err := tbl.NewScan(ScanSpec{Needed: []int{1, 2, 3}, B: &metrics.Breakdown{}})
				if err != nil {
					t.Fatal(err)
				}
				push := &AggPushdown{
					Keys: []expr.Node{expr.Slot(env, c.key)},
					Aggs: []AggCall{{Name: "COUNT", Star: true}, {Name: "SUM", Arg: expr.Slot(env, 2)}},
				}
				if !sc.PushAgg(push) {
					t.Fatal("PushAgg rejected")
				}
				if _, err := sc.DrainAgg(); err != nil {
					t.Fatal(err)
				}
				sc.Close()
			}
			scan() // cold: fills the map and the cache
			return testing.AllocsPerRun(3, scan)
		}
		small, large := allocs(10_000), allocs(20_000)
		if large > small+perChunk*10_000/chunkRows+8 {
			t.Errorf("%s key: %.0f allocations for 10k rows, %.0f for 20k", c.name, small, large)
		}
	}
}
