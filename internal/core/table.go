// Package core implements the paper's primary contribution: the
// PostgresRaw-style in-situ scan. A Table is an ordered list of segments —
// byte ranges of raw CSV files — each owning the three adaptive auxiliary
// structures: positional map, binary cache and on-the-fly statistics, all
// initially empty and populated exclusively as a side effect of query
// execution. One Scan walks the segments in order. Scans practice selective tokenizing
// (stop splitting a row at the highest attribute a query needs), selective
// parsing (convert only needed fields) and selective tuple formation
// (convert projection-only attributes after the filter qualifies a row).
package core

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"

	"nodb/internal/faults"
	"nodb/internal/rawfile"
	"nodb/internal/sched"
	"nodb/internal/schema"
	"nodb/internal/stats"
	"nodb/internal/watch"
)

// Default tuning knobs.
const (
	DefaultChunkRows        = 1024
	DefaultStatsSampleEvery = 16
	// DefaultAutoPartitionBytes is the partition size the catalog applies to
	// single files large enough to benefit from byte-range partitioning when
	// the user did not set partition_bytes explicitly.
	DefaultAutoPartitionBytes int64 = 256 << 20
)

// Options configure a raw table. The enable flags and budgets are the demo's
// interactive knobs: they can be changed between queries and the structures
// adapt (shrinking a budget evicts immediately).
type Options struct {
	Delim            byte  // field separator; default ','
	ChunkRows        int   // rows per processing chunk; default 1024
	BlockSize        int   // raw-file read granularity; default rawfile.DefaultBlockSize
	PosMapBudget     int64 // positional-map byte budget; 0 = unlimited
	CacheBudget      int64 // cache byte budget; 0 = unlimited
	EnablePosMap     bool
	EnableCache      bool
	EnableStats      bool
	StatsSampleEvery int // sample one row in N for statistics; default 16
	MapEveryNth      int // keep every Nth tokenized delimiter in the map; default 1 (all)
	// Parallelism is the number of chunk workers a scan is sized for: with
	// N > 1 its chunk tasks run on the Scheduler pool, at most a fixed
	// multiple of N past the last commit; <= 0 defaults to GOMAXPROCS. 1
	// runs the same stream with an inline executor (no goroutine, no pool)
	// on the consumer's goroutine.
	// Any setting yields identical rows, row order, and adaptive-structure
	// contents; with N > 1 the breakdown's time categories aggregate CPU
	// time across workers rather than wall-clock time.
	Parallelism int
	// OnError selects what a scan does with malformed input (a field that
	// does not convert to its column type, or a row with too few fields for
	// the attributes the query touches). The zero value is OnErrorNull.
	// Enforced identically by the vector kernels and the row fallback at
	// any Parallelism.
	OnError OnErrorPolicy
	// MaxErrors, when > 0, fails the scan with faults.ErrTooManyErrors once
	// more than MaxErrors malformed-input events accumulated (in chunk
	// order, so the failure point is deterministic). 0 means unlimited.
	MaxErrors int64
	// Scheduler is the shared DB-level worker pool parallel scans submit
	// their chunk tasks to. nil falls back to the process-default pool
	// (sched.Default). Parallelism sizes each scan's window — a fixed
	// multiple of it in chunks past the last commit, across segment
	// boundaries alike; the pool bound caps how many chunk tasks run at
	// once process-wide. Scheduling never affects results: rows, counters
	// and structure contents are byte-identical at any pool size.
	Scheduler *sched.Pool
}

// OnErrorPolicy is a table's malformed-input policy.
type OnErrorPolicy uint8

const (
	// OnErrorNull nulls the malformed field and counts the event
	// (metrics.Breakdown.MalformedFields) — the loader's behavior, now
	// observable.
	OnErrorNull OnErrorPolicy = iota
	// OnErrorFail aborts the query with a typed error (faults.ErrMalformed
	// or faults.ErrRagged) at the first bad field the query touches.
	OnErrorFail
	// OnErrorSkip drops rows containing malformed fields from the result
	// (counted in metrics.Breakdown.RowsDropped). Chunks with dropped rows
	// contribute nothing to the positional map, cache or statistics, so
	// warm rescans re-detect the same rows.
	OnErrorSkip
)

// String returns the DDL spelling of the policy.
func (p OnErrorPolicy) String() string {
	switch p {
	case OnErrorFail:
		return "fail"
	case OnErrorSkip:
		return "skip"
	default:
		return "null"
	}
}

// ParseOnErrorPolicy parses the DDL spelling of an on_error policy
// ("null", "fail", "skip"; empty means the default, null).
func ParseOnErrorPolicy(s string) (OnErrorPolicy, error) {
	switch s {
	case "", "null":
		return OnErrorNull, nil
	case "fail":
		return OnErrorFail, nil
	case "skip":
		return OnErrorSkip, nil
	default:
		return OnErrorNull, fmt.Errorf("core: unknown on_error policy %q (want 'fail', 'null' or 'skip')", s)
	}
}

func (o *Options) fillDefaults() {
	if o.Delim == 0 {
		o.Delim = ','
	}
	if o.ChunkRows <= 0 {
		o.ChunkRows = DefaultChunkRows
	}
	if o.StatsSampleEvery <= 0 {
		o.StatsSampleEvery = DefaultStatsSampleEvery
	}
	if o.MapEveryNth <= 0 {
		o.MapEveryNth = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
}

// InSituOptions returns the paper's PostgresRaw (PM+C) configuration.
func InSituOptions() Options {
	return Options{EnablePosMap: true, EnableCache: true, EnableStats: true}
}

// BaselineOptions returns the paper's "external files" baseline: every query
// re-tokenizes and re-parses the raw file, no auxiliary structures.
func BaselineOptions() Options { return Options{} }

// Table is a raw table registered for in-situ querying: a location, a
// schema, one option set and an ordered list of segments. The three
// registration shapes differ only in how the list comes about — a plain
// file is one whole-file segment, a glob is one segment per matched file,
// and a byte-range layout (partBytes > 0) is N row-aligned ranges of one
// file, discovered at first use so registration stays free of data I/O.
// Everything else — options, budgets, error policy, refresh, scanning — is
// the same loop over segments for every shape. Querying a multi-segment
// table yields byte-identical rows and counters to querying the segments'
// concatenated bytes as one file, and identical per-segment structure
// contents when every segment but the last holds a multiple of ChunkRows
// rows (the chunk decompositions then align).
type Table struct {
	location  string // file path, or the glob pattern of a multi-file table
	sch       *schema.Schema
	partBytes int64 // > 0: byte-range layout with partitions of about this size

	mu   sync.Mutex
	opts Options
	// segs is the ordered segment list, immutable once set; nil while a
	// byte-range layout's bounds are undiscovered (or were discarded by a
	// rewrite).
	segs []*Segment
	// Cumulative malformed-input tallies across all scans. Kept here rather
	// than per segment so they survive a rewrite rediscovering the segments.
	errMalformed int64
	errDropped   int64
}

// RawTable is the pre-segment name of *Table, kept only because cmd/bench
// (frozen between benchmark PRs) spells it; the next benchmark PR deletes
// the alias.
type RawTable = *Table

// NewTable registers a raw file as a one-segment table. The file must
// exist; its contents are not read (zero data-to-query time — reading
// happens when the first query scans).
func NewTable(path string, sch *schema.Schema, opts Options) (*Table, error) {
	return NewShardedTable(path, []string{path}, sch, opts)
}

// NewShardedTable registers the ordered files as one table, one segment
// per file. Like NewTable, the files must exist but are not read. location
// is the registered pattern (kept for display); paths must be non-empty and
// ordered (scan output follows this order).
func NewShardedTable(location string, paths []string, sch *schema.Schema, opts Options) (*Table, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: sharded table %q has no shard files", location)
	}
	opts.fillDefaults()
	t := &Table{location: location, sch: sch, opts: opts}
	for _, p := range paths {
		snap, err := watch.Take(p)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		t.segs = append(t.segs, t.newSegment(p, 0, 0, snap, len(paths)))
	}
	return t, nil
}

// NewPartitionedTable registers path for in-situ querying as byte-range
// segments of roughly partBytes bytes (rounded forward to row boundaries),
// so a cold scan of one very large file is one chunk stream over the
// partitions, exactly like a multi-file table. The file must exist; its contents
// are not read until the first use discovers the bounds. Once discovered
// the bounds are fixed until the file is rewritten (appends extend the last
// segment, which is unbounded).
func NewPartitionedTable(path string, sch *schema.Schema, opts Options, partBytes int64) (*Table, error) {
	if partBytes <= 0 {
		partBytes = DefaultAutoPartitionBytes
	}
	opts.fillDefaults()
	if _, err := watch.Take(path); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Table{location: path, sch: sch, opts: opts, partBytes: partBytes}, nil
}

// splitBudget divides a table-level byte budget evenly across n segments
// (0 stays unlimited; tiny budgets never round down to unlimited).
func splitBudget(total int64, n int) int64 {
	if total <= 0 || n <= 1 {
		return total
	}
	per := total / int64(n)
	if per == 0 {
		per = 1
	}
	return per
}

// findRowStart returns the offset of the first row starting at or after
// target: the byte after the first '\n' at or past target-1. Returns size
// when the remainder holds no terminator (the tail belongs to the previous
// segment).
func findRowStart(r *rawfile.Reader, target, size int64) (int64, error) {
	const window = 64 << 10
	buf := make([]byte, window)
	//nodbvet:ctxloop-ok one-time structural discovery with no scan context; normally a single 64KB probe per boundary, not per-query work
	for off := target - 1; off < size; off += int64(len(buf)) {
		p := buf
		if rem := size - off; rem < int64(len(p)) {
			p = p[:rem]
		}
		n, err := r.ReadAt(p, off)
		if n > 0 {
			if i := bytes.IndexByte(p[:n], '\n'); i >= 0 {
				return off + int64(i) + 1, nil
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	return size, nil
}

// findBounds probes a small window around each nominal offset i*partBytes
// of the file for the next row terminator, so every bound falls on a row
// boundary and each range behaves like a standalone file. It returns the
// lower bounds (the first is always 0) and a snapshot of the file version
// they describe. The probes are structural setup — charged to no query's
// breakdown, so a query against a byte-range table reports the same I/O
// counters as against the plain file.
func findBounds(path string, partBytes int64) ([]int64, watch.Snapshot, error) {
	snap, serr := watch.Take(path)
	if serr != nil {
		return nil, snap, faults.IO(path, -1, serr)
	}
	r, err := rawfile.Open(path, nil)
	if err != nil {
		return nil, snap, err
	}
	defer r.Close()
	size := r.Size()
	bounds := []int64{0}
	for target := partBytes; target < size; target += partBytes {
		lo, err := findRowStart(r, target, size)
		if err != nil {
			return nil, snap, err
		}
		if lo >= size {
			break
		}
		if lo <= bounds[len(bounds)-1] {
			continue // a row longer than partBytes swallowed this target
		}
		bounds = append(bounds, lo)
		if next := target + partBytes; lo >= next {
			// The boundary overshot the next nominal target (giant row):
			// realign so segments keep roughly partBytes each.
			target = (lo / partBytes) * partBytes
		}
	}
	return bounds, snap, nil
}

// segments returns the ordered segment list, discovering a byte-range
// layout's bounds on first use. Discovery runs outside every lock: racing
// first uses each probe the file and the first to finish publishes (bounds
// are a function of the bytes, so the losers' work is merely redundant).
// Failures are returned, not cached, so the next use retries.
func (t *Table) segments() ([]*Segment, error) {
	if segs := t.discovered(); segs != nil {
		return segs, nil
	}
	bounds, snap, err := findBounds(t.location, t.partBytes)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.segs == nil {
		for i, lo := range bounds {
			hi := int64(0) // last segment: through EOF, so appends extend it
			if i+1 < len(bounds) {
				hi = bounds[i+1]
			}
			t.segs = append(t.segs, t.newSegment(t.location, lo, hi, snap, len(bounds)))
		}
	}
	return t.segs, nil
}

// discovered returns the segment list as it stands, never touching the
// file: nil while a byte-range layout's bounds are undiscovered.
func (t *Table) discovered() []*Segment {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.segs
}

// Path returns the registered location (file path, or the glob pattern of
// a multi-file table).
func (t *Table) Path() string { return t.location }

// Schema returns the table schema (shared by every segment).
func (t *Table) Schema() *schema.Schema { return t.sch }

// PartitionBytes returns the byte-range layout's segment size target, 0
// for whole-file segments.
func (t *Table) PartitionBytes() int64 { return t.partBytes }

// Options returns the current option set (budgets are table-level totals,
// split evenly across segments).
func (t *Table) Options() Options {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.opts
}

// Segments returns the segments in scan order (monitoring, tests),
// discovering a byte-range layout's bounds if needed. Nil when discovery
// fails.
func (t *Table) Segments() []*Segment {
	segs, err := t.segments()
	if err != nil {
		return nil
	}
	return segs
}

// NumSegments reports the segment count without ever touching the file: 0
// while a byte-range layout's bounds are undiscovered. Catalog listings run
// under the catalog lock and plan labels must be cheap to render, so both
// use this instead of Segments.
func (t *Table) NumSegments() int { return len(t.discovered()) }

// StatsCollector returns the collector the planner estimates selectivities
// from: the first segment's — an ordinary sample of the table, in the same
// spirit as the paper's row-sampled statistics. Nil while a byte-range
// layout is undiscovered: planning then uses default estimates rather than
// probing the file.
func (t *Table) StatsCollector() *stats.Collector {
	segs := t.discovered()
	if len(segs) == 0 {
		return nil
	}
	return segs[0].stats
}

// RowCount returns the learned total row count, or -1 while any segment's
// count is unknown.
func (t *Table) RowCount() int64 {
	segs := t.discovered()
	if segs == nil {
		return -1
	}
	var total int64
	for _, g := range segs {
		n := g.RowCount()
		if n < 0 {
			return -1
		}
		total += n
	}
	return total
}

// SetEnabled toggles the adaptive components at run time (the demo's
// checkboxes). Disabling does not discard existing contents; they resume
// serving when re-enabled.
func (t *Table) SetEnabled(posMap, cache, statsOn bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.opts.EnablePosMap = posMap
	t.opts.EnableCache = cache
	t.opts.EnableStats = statsOn
}

// SetBudgets adjusts the storage budgets (the demo's sliders), re-splitting
// them across the segments and evicting immediately when shrinking.
func (t *Table) SetBudgets(posMapBudget, cacheBudget int64) {
	t.mu.Lock()
	t.opts.PosMapBudget = posMapBudget
	t.opts.CacheBudget = cacheBudget
	segs := t.segs
	t.mu.Unlock()
	for _, g := range segs {
		g.pm.SetBudget(splitBudget(posMapBudget, len(segs)))
		g.cache.SetBudget(splitBudget(cacheBudget, len(segs)))
	}
}

// SetErrorPolicy changes the table's malformed-input policy at run time
// (ALTER TABLE ... SET on_error/max_errors). Changing the policy discards
// the positional map, cache, statistics and sampling bookkeeping of every
// segment: the structures were learned under the old policy's view of the
// file (e.g. skip suppresses learning on chunks with bad rows, null does
// not), and keeping them would let a warm scan serve rows the new policy
// must drop or fail on. Chunk bases and row counts are byte facts of the
// file, independent of policy, and are kept.
func (t *Table) SetErrorPolicy(p OnErrorPolicy, maxErrors int64) {
	t.mu.Lock()
	changed := t.opts.OnError != p
	t.opts.OnError = p
	t.opts.MaxErrors = maxErrors
	segs := t.segs
	t.mu.Unlock()
	if changed {
		for _, g := range segs {
			g.forgetLearned()
		}
	}
}

// noteErrors tallies one committed chunk's malformed-input events and
// dropped rows into the table's cumulative counters (monitoring panel).
func (t *Table) noteErrors(malformed, dropped int64) {
	t.mu.Lock()
	t.errMalformed += malformed
	t.errDropped += dropped
	t.mu.Unlock()
}

// ErrorCounts returns the cumulative malformed-input events and dropped
// rows observed across all scans of this table.
func (t *Table) ErrorCounts() (malformed, dropped int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.errMalformed, t.errDropped
}

// Refresh checks every segment's file for outside changes, in segment
// order, and adapts each segment's structures. A failing segment does not
// abort the pass: every remaining one still refreshes (best-effort), so one
// bad file cannot leave the others stale. It returns the strongest change
// any segment saw (missing > rewritten > appended > unchanged) and the
// first error (which names its file). A rewrite invalidates a byte-range
// layout's row boundaries, so its segments are discarded and rediscovered
// on next use.
func (t *Table) Refresh() (watch.Change, error) {
	segs, err := t.segments()
	if err != nil {
		return watch.Unchanged, err
	}
	combined := watch.Unchanged
	var firstErr error
	for _, g := range segs {
		change, err := g.Refresh()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if change > combined {
			combined = change
		}
	}
	if t.partBytes > 0 && combined >= watch.Rewritten {
		t.mu.Lock()
		t.segs = nil
		t.mu.Unlock()
	}
	return combined, firstErr
}
