package nodb

import (
	"fmt"
	"path/filepath"
	"testing"

	"nodb/internal/datagen"
	"nodb/internal/workload"
)

// TestDemoShapes pins the shapes of the demo's adaptive components — the
// component ablation, the map grain, the attribute-count knob and
// within-epoch adaptation — on deterministic counters only, never on
// wall-clock time. internal/harness checks the demo's scenarios.
func TestDemoShapes(t *testing.T) {
	// query runs q and returns its stats.
	query := func(t *testing.T, db *DB, q string) QueryStats {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res.Stats
	}
	// gen writes a generated integer table of rows x attrs and returns its
	// path, spec and size.
	gen := func(t *testing.T, rows, attrs int) (string, datagen.Spec, int64) {
		t.Helper()
		spec := datagen.IntTable(rows, attrs, 1)
		path := filepath.Join(t.TempDir(), "t.csv")
		size, err := spec.WriteFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, spec, size
	}
	// raw opens a fresh DB with the file registered in situ as t.
	raw := func(t *testing.T, path string, spec datagen.Spec, opts *RawOptions) *DB {
		t.Helper()
		db := openDB(t)
		if err := db.RegisterRaw("t", path, spec.SchemaSpec(), opts); err != nil {
			t.Fatal(err)
		}
		return db
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"ablation", func(t *testing.T) {
			// Unfiltered, so every touched attribute is converted in full
			// and the cache can take over completely.
			path, spec, _ := gen(t, 4000, 6)
			for _, c := range []struct {
				opts                    *RawOptions
				tok, conv, bytes, jumps bool // whether the steady query does each
			}{
				{&RawOptions{DisablePosMap: true, DisableCache: true, DisableStats: true}, true, true, true, false},
				{&RawOptions{DisableCache: true}, false, true, true, true},
				{&RawOptions{DisablePosMap: true}, false, false, false, false},
				{nil, false, false, false, false},
			} {
				db := raw(t, path, spec, c.opts)
				query(t, db, "SELECT a2, a4 FROM t")
				s := query(t, db, "SELECT a2, a4 FROM t")
				got := [4]bool{s.FieldsTokenized > 0, s.FieldsConverted > 0, s.BytesRead > 0, s.MapJumpFields > 0}
				if want := [4]bool{c.tok, c.conv, c.bytes, c.jumps}; got != want {
					t.Errorf("%+v: steady tokenized/converted/read/jumped = %v, want %v (%+v)", c.opts, got, want, s)
				}
			}
		}},
		{"map grain", func(t *testing.T) {
			// The warm query maps every delimiter up to a5; the probe then
			// needs a4, which only the dense map stores.
			path, spec, _ := gen(t, 4000, 6)
			var mapBytes [2]int64
			for i, nth := range []int{1, 8} {
				db := raw(t, path, spec, &RawOptions{DisableCache: true, MapEveryNth: nth})
				query(t, db, "SELECT a5 FROM t")
				s := query(t, db, "SELECT a4 FROM t")
				p, _ := db.Panel("t")
				mapBytes[i] = p.PosMap.UsedBytes
				if sparse := nth > 1; (s.FieldsTokenized > 0) != sparse || (s.MapNearFields > 0) != sparse {
					t.Errorf("every %d: probe tokenized %d, near jumps %d", nth, s.FieldsTokenized, s.MapNearFields)
				}
			}
			if mapBytes[1] >= mapBytes[0] {
				t.Errorf("every-8th map %d bytes, dense map %d", mapBytes[1], mapBytes[0])
			}
		}},
		{"attribute count", func(t *testing.T) {
			var cold [2]int64
			for i, attrs := range []int{4, 12} {
				path, spec, _ := gen(t, 4000, attrs)
				db := raw(t, path, spec, &RawOptions{DisableCache: true})
				q := fmt.Sprintf("SELECT a%d FROM t WHERE a%d < 250", attrs-1, attrs-1)
				cold[i] = query(t, db, q).FieldsTokenized
				if s := query(t, db, q); s.FieldsTokenized != 0 {
					t.Errorf("%d attributes: warm query tokenized %d", attrs, s.FieldsTokenized)
				}
			}
			if cold[1] <= cold[0] {
				t.Errorf("cold tokenizing %d at 12 attributes, %d at 4", cold[1], cold[0])
			}
		}},
		{"epoch adaptation", func(t *testing.T) {
			path, spec, _ := gen(t, 4000, 6)
			db := raw(t, path, spec, nil)
			first := map[int]int64{}
			adapted := false
			for _, q := range workload.ShiftingWindows("t", spec.Schema(), 3, 3, 1) {
				tok := query(t, db, q.SQL).FieldsTokenized
				if f, ok := first[q.Epoch]; !ok {
					first[q.Epoch] = tok
				} else if tok < f {
					adapted = true
				}
			}
			if !adapted {
				t.Error("no later query of an epoch tokenized less than the epoch's first")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}
