package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/datagen"
	"nodb/internal/metrics"
	"nodb/internal/stats"
	"nodb/internal/value"
)

// statsGoldenSpec is the fixed seeded file the statistics golden is taken
// over: a sequential key with more distinct values than the exact distinct
// set tracks, skewed and uniform ints, text, floats and dates with NULLs,
// and booleans.
var statsGoldenSpec = datagen.Spec{
	Rows: 6000,
	Seed: 11,
	Cols: []datagen.ColumnSpec{
		{Name: "id", Kind: value.KindInt, Card: 6000, Dist: datagen.Sequential},
		{Name: "user", Kind: value.KindText, Card: 300, Width: 6},
		{Name: "score", Kind: value.KindFloat, Card: 5000, NullEvery: 7},
		{Name: "grp", Kind: value.KindInt, Card: 16, Dist: datagen.Zipf},
		{Name: "day", Kind: value.KindDate, Card: 3000, NullEvery: 11},
		{Name: "flag", Kind: value.KindBool, Card: 2},
	},
}

// renderStats prints everything the statistics expose about each attribute:
// its Snapshot, the bounds of an 8-bucket Histogram, and Selectivity of
// four predicates around the histogram's middle bound.
func renderStats(c *stats.Collector, nattrs int) string {
	var sb strings.Builder
	show := func(v value.Value) string { return fmt.Sprintf("%s:%s", v.K, v) }
	for a := 0; a < nattrs; a++ {
		s, ok := c.Snapshot(a)
		if !ok {
			fmt.Fprintf(&sb, "attr %d: none\n", a)
			continue
		}
		fmt.Fprintf(&sb, "attr %d: %s count=%d nulls=%d min=%s max=%s ndv=%d sample=%d\n",
			a, s.Kind, s.Count, s.Nulls, show(s.Min), show(s.Max), s.NDV, s.SampleSize)
		h, err := c.Histogram(a, 8)
		if err != nil {
			fmt.Fprintf(&sb, "  histogram: %v\n", err)
			continue
		}
		sb.WriteString("  bounds:")
		for _, b := range h.Bounds {
			sb.WriteString(" " + show(b))
		}
		fmt.Fprintf(&sb, " depth=%d\n", h.Depth)
		mid := h.Bounds[len(h.Bounds)/2]
		for _, op := range []string{"<", "=", ">=", "!="} {
			fmt.Fprintf(&sb, "  sel(%s %s)=%v\n", op, show(mid), c.Selectivity(a, op, mid))
		}
	}
	return sb.String()
}

// TestStatsGolden pins the statistics a cold scan of a fixed seeded file
// leaves behind to the values recorded before chunk workers summarised
// their samples: identical to that implementation, not only
// self-consistent, at every Parallelism. The sample rate of one keeps the
// reservoir replacing and the id column past the exact distinct set.
func TestStatsGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.csv")
	if _, err := statsGoldenSpec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	sch := statsGoldenSpec.Schema()
	needed := make([]int, sch.Len())
	for i := range needed {
		needed[i] = i
	}
	for _, par := range []int{1, 2, 8} {
		opts := InSituOptions()
		opts.ChunkRows = 256
		opts.StatsSampleEvery = 1
		opts.Parallelism = par
		tbl, err := NewTable(path, sch, opts)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := tbl.NewScan(ScanSpec{Needed: needed, B: &metrics.Breakdown{}})
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, ok, err := sc.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		sc.Close()
		if got := renderStats(tbl.Segments()[0].StatsCollector(), sch.Len()); got != statsGolden {
			t.Fatalf("parallelism %d: statistics differ from the golden:\n%s", par, got)
		}
	}
}

const statsGolden = `attr 0: INT count=6000 nulls=0 min=INT:0 max=INT:5999 ndv=6000 sample=1024
  bounds: INT:15 INT:734 INT:1588 INT:2329 INT:3114 INT:3877 INT:4501 INT:5263 INT:5987 depth=128
  sel(< INT:3114)=0.4990234375
  sel(= INT:3114)=0.0009765625
  sel(>= INT:3114)=0.5009765625
  sel(!= INT:3114)=0.9990234375
attr 1: TEXT count=6000 nulls=0 min=TEXT:v0xxxx max=TEXT:v9xxxx ndv=300 sample=1024
  bounds: TEXT:v0xxxx TEXT:v134xx TEXT:v16xxx TEXT:v200xx TEXT:v231xx TEXT:v267xx TEXT:v299xx TEXT:v64xxx TEXT:v9xxxx depth=128
  sel(< TEXT:v231xx)=0.4970703125
  sel(= TEXT:v231xx)=0.0029296875
  sel(>= TEXT:v231xx)=0.5029296875
  sel(!= TEXT:v231xx)=0.9970703125
attr 2: FLOAT count=5143 nulls=857 min=FLOAT:0.34 max=FLOAT:4999.98 ndv=5132 sample=1024
  bounds: FLOAT:6.66 FLOAT:602.44 FLOAT:1189.34 FLOAT:1901.09 FLOAT:2544.44 FLOAT:3138.52 FLOAT:3798.19 FLOAT:4466.03 FLOAT:4999.14 depth=128
  sel(< FLOAT:2544.44)=0.42774625651041664
  sel(= FLOAT:2544.44)=0.0008370768229166666
  sel(>= FLOAT:2544.44)=0.42942041015625
  sel(!= FLOAT:2544.44)=0.85632958984375
attr 3: INT count=6000 nulls=0 min=INT:0 max=INT:15 ndv=16 sample=1024
  bounds: INT:0 INT:0 INT:0 INT:0 INT:1 INT:2 INT:4 INT:7 INT:15 depth=128
  sel(< INT:1)=0.396484375
  sel(= INT:1)=0.1455078125
  sel(>= INT:1)=0.603515625
  sel(!= INT:1)=0.8544921875
attr 4: DATE count=5455 nulls=545 min=DATE:1970-01-02 max=DATE:1978-03-19 ndv=2490 sample=1024
  bounds: DATE:1970-01-02 DATE:1970-11-02 DATE:1972-01-09 DATE:1973-02-09 DATE:1974-01-21 DATE:1975-03-13 DATE:1976-02-20 DATE:1977-03-01 DATE:1978-03-15 depth=128
  sel(< DATE:1974-01-21)=0.45369547526041665
  sel(= DATE:1974-01-21)=0.0008878580729166667
  sel(>= DATE:1974-01-21)=0.45547119140625003
  sel(!= DATE:1974-01-21)=0.90827880859375
attr 5: BOOL count=6000 nulls=0 min=BOOL:false max=BOOL:true ndv=2 sample=1024
  bounds: BOOL:false BOOL:false BOOL:false BOOL:false BOOL:true BOOL:true BOOL:true BOOL:true BOOL:true depth=128
  sel(< BOOL:true)=0.4921875
  sel(= BOOL:true)=0.5078125
  sel(>= BOOL:true)=0.5078125
  sel(!= BOOL:true)=0.4921875
`
