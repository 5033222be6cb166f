package monitor

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/core"
	"nodb/internal/metrics"
	"nodb/internal/schema"
	"nodb/internal/value"
)

func setupTable(t *testing.T, rows int) *core.Table {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,n%d,%d\n", i, i, i%5)
	}
	path := filepath.Join(t.TempDir(), "m.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	sch := schema.MustNew([]schema.Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "name", Kind: value.KindText},
		{Name: "grp", Kind: value.KindInt},
	})
	tbl, err := core.NewTable(path, sch, core.Options{
		ChunkRows: 64, EnablePosMap: true, EnableCache: true, EnableStats: true,
		PosMapBudget: 1 << 20, CacheBudget: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func scanAll(t *testing.T, tbl *core.Table, attrs []int) {
	t.Helper()
	sc, err := tbl.NewScan(core.ScanSpec{Needed: attrs, B: &metrics.Breakdown{}})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for {
		_, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
	}
}

func TestSnapshotFresh(t *testing.T) {
	tbl := setupTable(t, 500)
	p := Snapshot("fresh", tbl.Segments()[0])
	if p.RowCount != -1 || p.NumChunks != 0 || p.Queries != 0 {
		t.Errorf("fresh panel: %+v", p)
	}
	out := p.String()
	if !strings.Contains(out, "rows: unknown") {
		t.Errorf("fresh render:\n%s", out)
	}
	if p.FileStrip(10) != "" {
		t.Error("fresh strip should be empty")
	}
}

func TestSnapshotAfterQueries(t *testing.T) {
	tbl := setupTable(t, 1000)
	scanAll(t, tbl, []int{0})
	scanAll(t, tbl, []int{0, 2})

	p := Snapshot("t", tbl.Segments()[0])
	if p.RowCount != 1000 || p.Queries != 2 {
		t.Errorf("panel: rows=%d queries=%d", p.RowCount, p.Queries)
	}
	if p.AccessCounts[0] != 2 || p.AccessCounts[1] != 0 || p.AccessCounts[2] != 1 {
		t.Errorf("access=%v", p.AccessCounts)
	}
	if p.PosMapCoverage[0] != 1.0 {
		t.Errorf("map coverage=%v", p.PosMapCoverage)
	}
	if p.CacheCoverage[0] != 1.0 || p.CacheCoverage[1] != 0 {
		t.Errorf("cache coverage=%v", p.CacheCoverage)
	}
	for _, k := range p.FileCoverage {
		if k != CoverBoth {
			t.Errorf("file coverage=%v, want all CoverBoth", p.FileCoverage)
			break
		}
	}
	if len(p.StatsAttrs) != 2 {
		t.Errorf("stats attrs=%v", p.StatsAttrs)
	}
	out := p.String()
	for _, want := range []string{"rows: 1000", "grains", "fragments", "statistics", "id"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	strip := p.FileStrip(8)
	if len(strip) != 8 || strings.Trim(strip, "#") != "" {
		t.Errorf("strip=%q", strip)
	}
}

func TestFileStripMixedCoverage(t *testing.T) {
	p := &Panel{
		NumChunks:    4,
		FileCoverage: []CoverKind{CoverNone, CoverMap, CoverCache, CoverBoth},
	}
	if got := p.FileStrip(4); got != ".mc#" {
		t.Errorf("strip=%q", got)
	}
	// Downsampling aggregates: map+cache in one bucket renders '#'.
	if got := p.FileStrip(2); got != "m#" {
		t.Errorf("downsampled strip=%q", got)
	}
	// Width above chunk count clamps.
	if got := p.FileStrip(100); len(got) != 4 {
		t.Errorf("clamped strip=%q", got)
	}
}

func TestBarAndBytes(t *testing.T) {
	if bar(-1, 4) != "····" {
		t.Errorf("unlimited bar=%q", bar(-1, 4))
	}
	if bar(0.5, 4) != "##.." {
		t.Errorf("half bar=%q", bar(0.5, 4))
	}
	if bar(2.0, 4) != "####" {
		t.Errorf("clamped bar=%q", bar(2.0, 4))
	}
	if fmtBytes(512) != "512B" || fmtBytes(2048) != "2.0KB" || fmtBytes(3<<20) != "3.0MB" {
		t.Errorf("fmtBytes wrong: %s %s %s", fmtBytes(512), fmtBytes(2048), fmtBytes(3<<20))
	}
	if truncate("short", 10) != "short" {
		t.Error("truncate changed short string")
	}
	if got := truncate("averylongname", 6); len(got) > 8 { // utf8 ellipsis
		t.Errorf("truncate=%q", got)
	}
}

func TestErrorsPanelLine(t *testing.T) {
	tbl := setupTable(t, 200)

	// Clean table, default policy: the panel keeps its classic shape.
	if out := Snapshot("t", tbl.Segments()[0]).String(); strings.Contains(out, "errors:") {
		t.Errorf("clean panel shows an errors line:\n%s", out)
	}

	// A non-default policy alone surfaces the line, before any scan.
	tbl.SetErrorPolicy(core.OnErrorSkip, 5)
	p := Snapshot("t", tbl.Segments()[0])
	if p.OnError != core.OnErrorSkip || p.MaxErrors != 5 {
		t.Fatalf("panel policy=%v max=%d", p.OnError, p.MaxErrors)
	}
	out := p.String()
	for _, want := range []string{"errors: policy=skip", "max_errors=5", "malformed fields: 0", "rows dropped: 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("panel missing %q:\n%s", want, out)
		}
	}
	tbl.SetErrorPolicy(core.OnErrorNull, 0)
}

func TestErrorsPanelCountsMalformed(t *testing.T) {
	// One malformed int field; under the default null policy the lifetime
	// malformed counter alone must surface the errors line.
	path := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(path, []byte("1,a\n2,b\nx,c\n4,d\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sch := schema.MustNew([]schema.Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "name", Kind: value.KindText},
	})
	tbl, err := core.NewTable(path, sch, core.Options{ChunkRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	scanAll(t, tbl, []int{0})

	p := Snapshot("bad", tbl.Segments()[0])
	if p.MalformedFields == 0 {
		t.Fatalf("malformed counter not populated: %+v", p)
	}
	out := p.String()
	if !strings.Contains(out, "errors: policy=null") || !strings.Contains(out, "malformed fields: 1") {
		t.Errorf("panel missing malformed accounting:\n%s", out)
	}
	if strings.Contains(out, "max_errors") {
		t.Errorf("panel shows max_errors with no cap:\n%s", out)
	}
}
