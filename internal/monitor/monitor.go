// Package monitor builds the demo's "system monitoring panel" (Figure 2):
// run-time snapshots of the positional map and cache occupancy, which parts
// of the raw file each structure knows, per-attribute access frequencies and
// the statistics coverage — rendered as ASCII panels instead of the GUI.
package monitor

import (
	"fmt"
	"strings"

	"nodb/internal/core"
	"nodb/internal/posmap"
	"nodb/internal/rawcache"
	"nodb/internal/sched"
	"nodb/internal/stats"
)

// CoverKind classifies how a file region is known to the system.
type CoverKind uint8

// Coverage kinds for file regions.
const (
	CoverNone  CoverKind = iota
	CoverMap             // positional map only
	CoverCache           // cache only
	CoverBoth
)

// Panel is one snapshot of a raw table's adaptive structures.
type Panel struct {
	Table     string
	RowCount  int64 // -1 unknown
	NumChunks int
	Queries   int64

	PosMap posmap.Stats
	Cache  rawcache.Stats

	AttrNames      []string
	PosMapCoverage []float64 // per attribute: fraction of chunks mapped
	CacheCoverage  []float64 // per attribute: fraction of chunks cached
	AccessCounts   []int64   // per attribute: scans that requested it
	FileCoverage   []CoverKind

	StatsAttrs []stats.AttrSnapshot

	// Robustness: the table's malformed-input policy and lifetime error
	// counters (events across all queries since registration/policy change).
	OnError         core.OnErrorPolicy
	MaxErrors       int64
	MalformedFields int64
	RowsDropped     int64
}

// Snapshot captures the current panel for one segment of a raw table (a
// plain file has exactly one). The error policy and the lifetime error
// counters are the table's: they are kept once per table, not per segment.
func Snapshot(name string, seg *core.Segment) *Panel {
	sch := seg.Table().Schema()
	nattrs := sch.Len()
	nchunks := seg.NumChunks()
	p := &Panel{
		Table:     name,
		RowCount:  seg.RowCount(),
		NumChunks: nchunks,
		Queries:   seg.Queries(),
		PosMap:    seg.PosMap().Stats(),
		Cache:     seg.Cache().Stats(),
	}
	opts := seg.Options()
	p.OnError, p.MaxErrors = opts.OnError, opts.MaxErrors
	p.MalformedFields, p.RowsDropped = seg.Table().ErrorCounts()
	for i := 0; i < nattrs; i++ {
		p.AttrNames = append(p.AttrNames, sch.Col(i).Name)
	}
	p.PosMapCoverage = seg.PosMap().Coverage(nattrs, nchunks)
	p.CacheCoverage = seg.Cache().Coverage(nattrs, nchunks)
	p.AccessCounts = seg.AccessCounts()

	mapCov := seg.PosMap().ChunkCovered(nchunks)
	cacheCov := seg.Cache().ChunkCovered(nchunks)
	p.FileCoverage = make([]CoverKind, nchunks)
	for c := 0; c < nchunks; c++ {
		switch {
		case mapCov[c] && cacheCov[c]:
			p.FileCoverage[c] = CoverBoth
		case mapCov[c]:
			p.FileCoverage[c] = CoverMap
		case cacheCov[c]:
			p.FileCoverage[c] = CoverCache
		}
	}
	for i := 0; i < nattrs; i++ {
		if snap, ok := seg.StatsCollector().Snapshot(i); ok {
			p.StatsAttrs = append(p.StatsAttrs, snap)
		}
	}
	return p
}

// PoolPanel renders a chunk-scheduler snapshot in the table panels' style:
// worker occupancy as a utilization bar, the live scan queues, and the
// lifetime totals. Everything here is timing-dependent telemetry — the
// deterministic per-query figure (chunk tasks run) lives in QueryStats.
func PoolPanel(s sched.Stats) string {
	var sb strings.Builder
	sb.WriteString("=== chunk scheduler: worker pool ===\n")
	frac := 0.0
	if s.MaxWorkers > 0 {
		frac = float64(s.Running) / float64(s.MaxWorkers)
	}
	fmt.Fprintf(&sb, "workers        [%s] %d/%d running\n", bar(frac, 20), s.Running, s.MaxWorkers)
	fmt.Fprintf(&sb, "scan queues: %d   queued chunks: %d\n", s.Queues, s.Queued)
	fmt.Fprintf(&sb, "lifetime: %d tasks run, %d cross-queue claims, peak depth %d, peak queues %d\n",
		s.TasksRun, s.Steals, s.MaxDepth, s.MaxQueues)
	return sb.String()
}

// Utilization returns used/budget for a stats pair, or -1 when unlimited.
func utilization(used, budget int64) float64 {
	if budget <= 0 {
		return -1
	}
	return float64(used) / float64(budget)
}

// bar renders a fixed-width utilization bar.
func bar(frac float64, width int) string {
	if frac < 0 {
		return strings.Repeat("·", width)
	}
	if frac > 1 {
		frac = 1
	}
	fill := int(frac*float64(width) + 0.5)
	return strings.Repeat("#", fill) + strings.Repeat(".", width-fill)
}

// String renders the panel (the Figure-2 equivalent).
func (p *Panel) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: system monitoring panel ===\n", p.Table)
	rc := "unknown"
	if p.RowCount >= 0 {
		rc = fmt.Sprint(p.RowCount)
	}
	fmt.Fprintf(&sb, "rows: %s   chunks: %d   queries: %d\n", rc, p.NumChunks, p.Queries)
	// The errors line appears only when there is something to report, so the
	// clean-table panel keeps its classic shape.
	if p.OnError != core.OnErrorNull || p.MaxErrors > 0 || p.MalformedFields > 0 || p.RowsDropped > 0 {
		fmt.Fprintf(&sb, "errors: policy=%s", p.OnError)
		if p.MaxErrors > 0 {
			fmt.Fprintf(&sb, " max_errors=%d", p.MaxErrors)
		}
		fmt.Fprintf(&sb, "   malformed fields: %d   rows dropped: %d\n", p.MalformedFields, p.RowsDropped)
	}

	mu := utilization(p.PosMap.UsedBytes, p.PosMap.BudgetBytes)
	cu := utilization(p.Cache.UsedBytes, p.Cache.BudgetBytes)
	fmt.Fprintf(&sb, "positional map [%s] %s (%d grains, %d evictions, %d hits, %d near, %d misses)\n",
		bar(mu, 20), sizeOrPct(p.PosMap.UsedBytes, p.PosMap.BudgetBytes),
		p.PosMap.Grains, p.PosMap.Evictions, p.PosMap.Hits, p.PosMap.NearHits, p.PosMap.Misses)
	fmt.Fprintf(&sb, "cache          [%s] %s (%d fragments, %d evictions, %d hits, %d misses)\n",
		bar(cu, 20), sizeOrPct(p.Cache.UsedBytes, p.Cache.BudgetBytes),
		p.Cache.Fragments, p.Cache.Evictions, p.Cache.Hits, p.Cache.Misses)

	sb.WriteString("attribute      access   map-coverage         cache-coverage\n")
	for i, name := range p.AttrNames {
		fmt.Fprintf(&sb, "%-14s %6d   [%s] %3.0f%%   [%s] %3.0f%%\n",
			truncate(name, 14), p.AccessCounts[i],
			bar(p.PosMapCoverage[i], 12), 100*p.PosMapCoverage[i],
			bar(p.CacheCoverage[i], 12), 100*p.CacheCoverage[i])
	}

	if p.NumChunks > 0 {
		sb.WriteString("file regions (·=untouched m=map c=cache #=both):\n  ")
		sb.WriteString(p.FileStrip(60))
		sb.WriteByte('\n')
	}

	if len(p.StatsAttrs) > 0 {
		sb.WriteString("statistics (adaptive, touched attributes only):\n")
		for _, s := range p.StatsAttrs {
			fmt.Fprintf(&sb, "  %-14s count=%d nulls=%d ndv=%d min=%v max=%v\n",
				truncate(p.AttrNames[s.Attr], 14), s.Count, s.Nulls, s.NDV, s.Min, s.Max)
		}
	}
	return sb.String()
}

// FileStrip downsamples the chunk coverage to a width-character strip.
func (p *Panel) FileStrip(width int) string {
	if p.NumChunks == 0 {
		return ""
	}
	if width > p.NumChunks {
		width = p.NumChunks
	}
	out := make([]byte, width)
	for w := 0; w < width; w++ {
		lo := w * p.NumChunks / width
		hi := (w + 1) * p.NumChunks / width
		if hi == lo {
			hi = lo + 1
		}
		var agg CoverKind
		seenMap, seenCache := false, false
		for c := lo; c < hi && c < len(p.FileCoverage); c++ {
			switch p.FileCoverage[c] {
			case CoverBoth:
				seenMap, seenCache = true, true
			case CoverMap:
				seenMap = true
			case CoverCache:
				seenCache = true
			}
		}
		switch {
		case seenMap && seenCache:
			agg = CoverBoth
		case seenMap:
			agg = CoverMap
		case seenCache:
			agg = CoverCache
		}
		out[w] = [...]byte{'·', 'm', 'c', '#'}[agg]
		if agg == CoverNone {
			out[w] = '.'
		}
	}
	return string(out)
}

func sizeOrPct(used, budget int64) string {
	if budget <= 0 {
		return fmt.Sprintf("%s / unlimited", fmtBytes(used))
	}
	return fmt.Sprintf("%s / %s (%.0f%%)", fmtBytes(used), fmtBytes(budget), 100*float64(used)/float64(budget))
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
