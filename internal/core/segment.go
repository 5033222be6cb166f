package core

import (
	"sync"

	"nodb/internal/faults"
	"nodb/internal/posmap"
	"nodb/internal/rawcache"
	"nodb/internal/rawfile"
	"nodb/internal/schema"
	"nodb/internal/stats"
	"nodb/internal/watch"
)

// Segment is one byte range of one raw file — the unit a scan opens, and
// the unit that owns adaptive state: its own positional map, binary cache,
// statistics, chunk-base territory, row count and file snapshot. Segments
// warm, refresh and evict independently. Options live on the table; a
// segment reads them from there instead of carrying a copy.
type Segment struct {
	tbl  *Table
	sch  *schema.Schema // the table's schema
	path string
	// Byte-range bounds: the segment serves only [lo, hi) of the file (both
	// zero: the whole file; hi = 0 with lo > 0: through EOF). Scans restrict
	// their readers to the range, so every offset above the reader — chunk
	// bases, positional-map grains, cache fragments — is segment-relative.
	lo, hi int64
	// chunkRows is the table's ChunkRows at registration. It defines the
	// segment's chunk-ID territory (map grains and cache fragments are keyed
	// by chunk), so unlike the table's other options it can never change.
	chunkRows int

	pm    *posmap.Map
	cache *rawcache.Cache
	stats *stats.Collector

	mu sync.Mutex
	// Structural metadata learned on the first scan. This is the
	// chunk-granularity slice of the positional map (row starts of chunk
	// boundaries plus the total row count); it is O(#chunks) and kept
	// outside the LRU budget so that skipping and chunk addressing stay
	// possible after evictions.
	chunkBases []int64
	rowCount   int64 // -1 until a scan reaches EOF
	snap       watch.Snapshot

	accessCounts []int64 // per-attribute access tally (monitoring panel)
	queries      int64
	statsSeen    map[[2]int]struct{} // (chunk, attr) pairs already sampled
}

// newSegment builds the [lo, hi) segment of path for a table of n segments.
// The caller holds t.mu or has not shared t yet.
func (t *Table) newSegment(path string, lo, hi int64, snap watch.Snapshot, n int) *Segment {
	return &Segment{
		tbl:          t,
		sch:          t.sch,
		path:         path,
		lo:           lo,
		hi:           hi,
		chunkRows:    t.opts.ChunkRows,
		pm:           posmap.New(splitBudget(t.opts.PosMapBudget, n)),
		cache:        rawcache.New(splitBudget(t.opts.CacheBudget, n)),
		stats:        stats.NewCollector(t.sch.Len(), 0),
		rowCount:     -1,
		snap:         snap,
		accessCounts: make([]int64, t.sch.Len()),
	}
}

// Table returns the table the segment belongs to.
func (g *Segment) Table() *Table { return g.tbl }

// Path returns the segment's raw file path.
func (g *Segment) Path() string { return g.path }

// Range reports the segment's byte-range bounds ((0, 0) for a whole file;
// hi = 0 with lo > 0 means "through EOF").
func (g *Segment) Range() (lo, hi int64) { return g.lo, g.hi }

// Options returns the table's options as they apply to this segment: the
// budgets are the segment's share of the table-level totals.
func (g *Segment) Options() Options {
	o := g.tbl.Options()
	n := g.tbl.NumSegments()
	o.PosMapBudget = splitBudget(o.PosMapBudget, n)
	o.CacheBudget = splitBudget(o.CacheBudget, n)
	return o
}

// open opens the segment's file, restricted to its byte range, and returns
// the fingerprint of the version opened. Warm-structure reuse check: if the
// fingerprint moved since the segment's structures were learned, they are
// adapted first (the deterministic invalidation Refresh implements) and the
// file reopened — a rename replacement leaves an already-open descriptor
// pointing at the old inode. One attempt only: a mismatch that survives
// Refresh (e.g. an injected fault faking the fingerprint) is caught per
// chunk instead.
func (g *Segment) open() (*rawfile.Reader, rawfile.Fingerprint, error) {
	for refreshed := false; ; refreshed = true {
		reader, err := rawfile.Open(g.path, nil)
		if err != nil {
			return nil, rawfile.Fingerprint{}, err
		}
		if g.lo > 0 || g.hi > 0 {
			reader.Restrict(g.lo, g.hi)
		}
		fp, err := reader.Fingerprint()
		if err != nil {
			reader.Close()
			return nil, rawfile.Fingerprint{}, err
		}
		g.mu.Lock()
		current := g.snap.Size == fp.Size && g.snap.ModTime == fp.ModTime
		g.mu.Unlock()
		if current || refreshed {
			return reader, fp, nil
		}
		reader.Close()
		if _, err := g.Refresh(); err != nil {
			return nil, rawfile.Fingerprint{}, err
		}
	}
}

// forgetLearned discards everything learned under a malformed-input policy
// that no longer applies. Chunk bases and the row count are byte facts of
// the file, independent of policy, and are kept.
func (g *Segment) forgetLearned() {
	g.mu.Lock()
	g.statsSeen = nil
	rc := g.rowCount
	g.mu.Unlock()
	g.pm.Clear()
	g.cache.Clear()
	g.stats.Clear()
	if rc >= 0 {
		// Re-seeding the row count is ALTER TABLE lifecycle reconfiguration:
		// the structures were just discarded wholesale, no scan commit is in
		// flight, and the count is a byte fact of the file independent of
		// visit order.
		//nodbvet:commitscope-ok ALTER TABLE reconfiguration re-seeds a byte fact after a full clear; no commit in flight
		g.stats.SetRowCount(rc)
	}
}

// RowCount returns the learned row count, or -1 before any full scan.
func (g *Segment) RowCount() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rowCount
}

// NumChunks returns the number of known chunks (grows during the first
// scan).
func (g *Segment) NumChunks() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.chunkBases)
}

// PosMap exposes the positional map (monitoring).
func (g *Segment) PosMap() *posmap.Map { return g.pm }

// Cache exposes the binary cache (monitoring).
func (g *Segment) Cache() *rawcache.Cache { return g.cache }

// StatsCollector exposes the on-the-fly statistics (monitoring).
func (g *Segment) StatsCollector() *stats.Collector { return g.stats }

// AccessCounts returns a copy of the per-attribute access tally.
func (g *Segment) AccessCounts() []int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int64, len(g.accessCounts))
	copy(out, g.accessCounts)
	return out
}

// Queries returns the number of scans that opened this segment.
func (g *Segment) Queries() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.queries
}

// noteAccess tallies one scan's attribute set.
func (g *Segment) noteAccess(attrs []int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.queries++
	for _, a := range attrs {
		if a >= 0 && a < len(g.accessCounts) {
			g.accessCounts[a]++
		}
	}
}

// markStatsSeen records that (chunk, attr) was sampled for statistics,
// returning false if it already was (avoiding double counting across
// repeated queries over the same data).
func (g *Segment) markStatsSeen(chunk, attr int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.statsSeen == nil {
		g.statsSeen = make(map[[2]int]struct{})
	}
	k := [2]int{chunk, attr}
	if _, ok := g.statsSeen[k]; ok {
		return false
	}
	g.statsSeen[k] = struct{}{}
	return true
}

// statsSeenPeek reports whether (chunk, attr) was already sampled, without
// claiming it. Workers use this to skip sampling work on repeat scans; the
// authoritative claim happens at commit via markStatsSeen.
func (g *Segment) statsSeenPeek(chunk, attr int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.statsSeen == nil {
		return false
	}
	_, ok := g.statsSeen[[2]int{chunk, attr}]
	return ok
}

// chunkBase returns the base offset of chunk c if known.
func (g *Segment) chunkBase(c int) (int64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c < len(g.chunkBases) {
		return g.chunkBases[c], true
	}
	return 0, false
}

// learnChunkBase records the base offset of chunk c discovered during a
// scan. Appends are idempotent: offsets are a deterministic function of the
// file contents.
func (g *Segment) learnChunkBase(c int, base int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c == len(g.chunkBases) {
		g.chunkBases = append(g.chunkBases, base)
	}
}

// learnRowCount records the total row count at EOF.
func (g *Segment) learnRowCount(n int64) {
	g.mu.Lock()
	changed := g.rowCount != n
	g.rowCount = n
	g.mu.Unlock()
	if changed {
		g.stats.SetRowCount(n)
	}
}

// rowsInChunk returns the row count of chunk c when the total is known.
func (g *Segment) rowsInChunk(c int) (int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rowCount < 0 {
		return 0, false
	}
	start := int64(c) * int64(g.chunkRows)
	if start >= g.rowCount {
		return 0, true
	}
	n := g.rowCount - start
	if n > int64(g.chunkRows) {
		n = int64(g.chunkRows)
	}
	return int(n), true
}

// Refresh checks the segment's file for changes and adapts the auxiliary
// structures: appends keep everything learned about the unchanged prefix
// (only the trailing partial chunk is dropped); rewrites discard all
// structures. Returns the detected change.
func (g *Segment) Refresh() (watch.Change, error) {
	g.mu.Lock()
	snap := g.snap
	g.mu.Unlock()

	change, newSnap, err := watch.Detect(g.path, snap)
	if err != nil {
		// Detect errors are stat/read failures on the file: classify them as
		// I/O faults so on_error policies and errors.Is callers can act on
		// them (the original error stays wrapped underneath).
		return change, faults.IO(g.path, -1, err)
	}
	if change == watch.Appended && g.hi > 0 {
		// An append happens past the end of the file, and this segment covers
		// a fixed interior range [lo, hi): its bytes are untouched, so
		// everything learned stays valid. Adopt the new snapshot (warm
		// scans compare against its mtime) and report no change.
		change = watch.Unchanged
	}
	switch change {
	case watch.Unchanged:
		// Even "unchanged" can refresh the snapshot: a touched-but-identical
		// file keeps its content fingerprint but moves its mtime, and warm
		// scans compare against the stored snapshot's mtime.
		g.mu.Lock()
		g.snap = newSnap
		g.mu.Unlock()
		return change, nil
	case watch.Appended:
		g.mu.Lock()
		// The previous final chunk may have been partial; re-learn it. All
		// earlier chunks are untouched by an append.
		lastFull := 0
		if g.rowCount >= 0 {
			lastFull = int(g.rowCount) / g.chunkRows // index of the partial chunk
		} else if len(g.chunkBases) > 0 {
			lastFull = len(g.chunkBases) - 1
		}
		if len(g.chunkBases) > lastFull {
			g.chunkBases = g.chunkBases[:lastFull+1]
		}
		g.rowCount = -1
		g.snap = newSnap
		// Predicate-delete over the seen-set: every key is tested against the
		// same cutoff and deletion is the only effect, so visit order cannot
		// influence any output.
		//nodbvet:unordered-ok order-insensitive predicate-delete; no emission or commit depends on visit order
		for k := range g.statsSeen {
			if k[0] >= lastFull {
				delete(g.statsSeen, k)
			}
		}
		g.mu.Unlock()
		g.pm.DropChunk(lastFull)
		g.cache.DropChunk(lastFull)
		return change, nil
	case watch.Rewritten:
		g.mu.Lock()
		g.chunkBases = nil
		g.rowCount = -1
		g.snap = newSnap
		g.statsSeen = nil
		g.mu.Unlock()
		g.pm.Clear()
		g.cache.Clear()
		g.stats.Clear()
		return change, nil
	default: // watch.Missing
		// The file vanished out from under the table: the same
		// structures-vs-file disagreement class as a rewrite.
		return change, faults.Changed(g.path, "raw file disappeared")
	}
}
