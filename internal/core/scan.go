package core

import (
	"context"
	"fmt"
	"io"

	"nodb/internal/expr"
	"nodb/internal/faults"
	"nodb/internal/metrics"
	"nodb/internal/value"
)

// ScanSpec describes what a query needs from a raw table.
type ScanSpec struct {
	// Needed lists the attribute indexes the scan must produce, in output
	// order. The returned batch columns use this layout.
	Needed []int
	// FilterAttrs is the subset of Needed referenced by the pushed-down
	// predicate. The scan converts these first, runs Filter, and converts
	// the remaining attributes only for qualifying rows (selective tuple
	// formation).
	FilterAttrs []int
	// Filter is the pushed-down predicate over the output layout; nil keeps
	// every row. Slots of attributes outside FilterAttrs hold unspecified
	// values when it runs, so it must read only FilterAttrs slots. Each
	// chunk worker compiles its own expr.VecEval of it (an evaluator
	// carries per-batch scratch), so with Parallelism > 1 the node's Eval
	// runs concurrently from several workers and must be safe for that
	// (the planner's compiled predicates are pure).
	Filter expr.Node
	// B receives the execution breakdown. Must be non-nil.
	B *metrics.Breakdown
	// Ctx, when non-nil, cancels the scan: NextBatch/DrainAgg return
	// Ctx.Err() at the next chunk boundary once the context is done, and the
	// parallel pipeline abandons its read-ahead promptly. Side effects of
	// chunks already committed (positional map, cache, statistics) remain —
	// they form a deterministic prefix, so a warm rerun after cancellation is
	// byte-identical to one after an uncancelled scan.
	Ctx context.Context
	// Agg, when non-nil, makes the scan fold each chunk into partial
	// aggregation states instead of serving row batches (worker-side
	// partial aggregation). Installed after NewScan via Scan.PushAgg; the
	// consumer then drives the scan with DrainAgg rather than NextBatch.
	Agg *AggPushdown
}

// Batch is the columnar unit every operator hands to the next: Cols holds
// one column per output attribute and Sel lists the live row indexes, in
// ascending order. A batch (and the values it points to) is valid only
// until the producer's next NextBatch call; consumers that retain values
// must copy. Sel may be empty when a whole chunk was filtered out, and Cols
// is empty for zero-attribute scans (COUNT(*)), where len(Sel) alone
// carries the row multiplicity. In a scan batch, columns of attributes
// outside FilterAttrs hold converted values only at the selected rows
// (selective tuple formation); the other slots are unspecified.
type Batch struct {
	Cols [][]value.Value
	Sel  []int32
}

// Scan is the in-situ scan over a raw table: one chunk stream over the
// table's segments in order, which commits chunks strictly in (segment,
// chunk) order, so results, row order and adaptive-structure population are
// identical at any Parallelism or pool size. The stream opens a segment
// when it reaches the segment's first chunk and keeps at most one window of
// positions past the last commit in flight, so an early Close (LIMIT,
// cancellation) never opens a segment beyond the window, and results read
// ahead publish nothing. Not safe for concurrent use; run one goroutine per
// scan.
type Scan struct {
	t    *Table
	b    *metrics.Breakdown
	opts Options // the table's options when the scan opened
	spec ScanSpec

	segs []*Segment // the table's segments when the scan opened
	st   stream

	finished  bool
	countOnly int64 // pending synthetic rows for zero-attribute scans

	closed     bool
	err        error // sticky: a failed scan stays failed
	errorsSeen int64 // malformed-input events, accumulated in commit order across segments

	cur      *chunkOut // current committed chunk, served as batch
	batch    Batch
	countSel []int32 // identity selection for synthetic count batches

	// Partial-aggregation merge state (spec.Agg != nil): the scan's group
	// keys, and aggGroups indexed by their dictionary id, which is their
	// first-seen commit order. Workers only build per-chunk partials; these
	// are touched solely at commit on the consumer goroutine, so partials
	// fold across segment boundaries exactly as they fold across chunks —
	// bitwise-identical float results.
	aggDict   *groupDict
	aggGroups []*PartialGroup
}

// OpenScan is the pre-segment spelling of NewScan, kept only because
// cmd/bench (frozen between benchmark PRs) calls it; the next benchmark PR
// deletes the forwarder.
func (t *Table) OpenScan(spec ScanSpec) (*Scan, error) { return t.NewScan(spec) }

// NewScan opens a scan. Close must be called when done. The first segment
// opens eagerly so a missing or unreadable file surfaces here; later ones
// open as the stream reaches them.
func (t *Table) NewScan(spec ScanSpec) (*Scan, error) {
	// Spec validation below reports API misuse by the caller, before any file
	// is touched — deliberately outside the faults taxonomy, which classifies
	// runtime file/scan failures for retry and quarantine policy.
	if spec.B == nil {
		//nodbvet:errtaxonomy-ok construction-time API misuse, not a scan-path fault
		return nil, fmt.Errorf("core: ScanSpec.B must be non-nil")
	}
	seen := make(map[int]bool, len(spec.Needed))
	for _, a := range spec.Needed {
		if a < 0 || a >= t.sch.Len() {
			//nodbvet:errtaxonomy-ok construction-time API misuse, not a scan-path fault
			return nil, fmt.Errorf("core: attribute %d out of range (schema has %d)", a, t.sch.Len())
		}
		if seen[a] {
			//nodbvet:errtaxonomy-ok construction-time API misuse, not a scan-path fault
			return nil, fmt.Errorf("core: attribute %d listed twice in Needed", a)
		}
		seen[a] = true
	}
	for _, a := range spec.FilterAttrs {
		if !seen[a] {
			//nodbvet:errtaxonomy-ok construction-time API misuse, not a scan-path fault
			return nil, fmt.Errorf("core: filter attribute %d not in Needed", a)
		}
	}
	segs, err := t.segments()
	if err != nil {
		return nil, err
	}
	s := &Scan{t: t, b: spec.B, opts: t.Options(), spec: spec, segs: segs}
	s.st = newStream(s)
	if _, err := s.st.open(0); err != nil {
		return nil, err
	}
	return s, nil
}

// Close stops the stream (discarding results read ahead but not yet
// committed) and releases the file handles of the segments still open;
// segments beyond the window were never opened. Idempotent: repeated Close
// calls return nil, and NextBatch/DrainAgg after Close report
// faults.ErrClosed instead of scanning.
func (s *Scan) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.st.close()
}

// NextBatch returns the next chunk of qualifying rows in columnar form.
// The batch is valid until the following NextBatch call. Chunks the pushed
// filter emptied are skipped, and a batch never spans segments (a chunk
// belongs to exactly one).
func (s *Scan) NextBatch() (*Batch, bool, error) {
	if err := s.usable(); err != nil {
		return nil, false, err
	}
	for {
		if s.countOnly > 0 {
			n := s.countOnly
			if max := int64(s.opts.ChunkRows); n > max {
				n = max
			}
			s.countOnly -= n
			for len(s.countSel) < int(n) {
				s.countSel = append(s.countSel, int32(len(s.countSel)))
			}
			s.batch = Batch{Sel: s.countSel[:n]}
			return &s.batch, true, nil
		}
		if s.finished {
			return nil, false, nil
		}
		if err := s.advance(); err != nil {
			return nil, false, err
		}
		if s.cur != nil && len(s.cur.sel) > 0 {
			s.batch = Batch{Cols: s.cur.cols, Sel: s.cur.sel}
			return &s.batch, true, nil
		}
	}
}

// ctxErr reports the scan's context error, if the scan is cancellable and
// its context is done. On cancellation the stream is shut down so
// read-ahead stops promptly; the error is sticky (the context stays done).
func (s *Scan) ctxErr() error {
	if s.spec.Ctx == nil {
		return nil
	}
	select {
	case <-s.spec.Ctx.Done():
		s.st.shutdown()
		return s.spec.Ctx.Err()
	default:
		return nil
	}
}

// usable reports why the scan cannot serve: closed, or failed earlier. A
// failed scan stays failed — its worker scratch and stream state may be
// mid-chunk, so re-entering would serve undefined data.
func (s *Scan) usable() error {
	if s.closed {
		return faults.Closed(s.t.location)
	}
	return s.err
}

// advance commits the stream's next position — a chunk into s.cur or into
// the aggregation merge table, or the end of a segment — and marks the scan
// finished past the last segment. Any error is sticky: the scan refuses
// further use.
func (s *Scan) advance() error {
	err := s.ctxErr()
	if err == nil {
		if s.cur != nil {
			// The served batch is invalid from here on per the NextBatch
			// contract: its buffers go back to the chunk tasks.
			s.st.recycle(s.cur)
			s.cur = nil
		}
		var o *chunkOut
		if o, err = s.st.pull(); err == nil {
			err = s.commit(o)
		}
	}
	if err == io.EOF {
		s.finished = true
		return nil
	}
	s.err = err
	return err
}

// commit applies one processed chunk's deferred side effects to its
// segment's structures and makes its batch current, and gives the
// position's window slot back. Chunks are always committed in stream order
// — by construction with the inline executor, via the ordered merge with
// the pool — so positional-map, cache and statistics population is
// deterministic regardless of worker interleaving. A result that ends a
// segment closes its file; io.EOF reports the end of the last one.
func (s *Scan) commit(o *chunkOut) error {
	s.st.release()
	run := s.st.runs[o.seg]
	if run != nil {
		if run.ended {
			// Read ahead past a worker's end of data: the segment is done.
			s.st.recycle(o)
			return nil
		}
		if err := run.checkFile(); err != nil {
			return err
		}
	}
	if o.b != nil {
		s.b.Merge(o.b)
	}
	if o.err != nil {
		return o.err
	}
	seg := run.seg
	if o.errFields > 0 || o.dropped > 0 {
		s.t.noteErrors(o.errFields, o.dropped)
		s.errorsSeen += o.errFields
		if s.opts.MaxErrors > 0 && s.errorsSeen > s.opts.MaxErrors {
			// Over budget: reject before applying this chunk's side effects,
			// so the committed structure state is exactly the clean prefix
			// and a warm rerun re-detects the same events in the same order.
			return faults.TooMany(seg.path, s.errorsSeen, s.opts.MaxErrors)
		}
	}
	if o.base >= 0 {
		seg.learnChunkBase(o.c, o.base)
	}
	if o.nextBase >= 0 {
		seg.learnChunkBase(o.c+1, o.nextBase)
	}
	if o.eof {
		seg.learnRowCount(run.rowsDone)
		return s.endSegment(o.seg)
	}
	if o.countFinal >= 0 {
		n := o.countFinal - run.rowsDone
		run.rowsDone = o.countFinal
		s.countOnly += n
		s.b.RowsScanned += n
		return s.endSegment(o.seg)
	}
	if len(o.learnDel) > 0 {
		sw := metrics.NewStopwatch(s.b)
		if seg.pm.Adopt(o.c, o.base, o.nrows, o.learnDel, o.learnPos) {
			o.learnDel, o.learnPos = nil, nil // the map's grain now
		}
		sw.Stop(metrics.NoDB)
	}
	if len(o.frags) > 0 {
		sw := metrics.NewStopwatch(s.b)
		for _, f := range o.frags {
			seg.cache.Put(f)
		}
		sw.Stop(metrics.NoDB)
	}
	if len(o.samples) > 0 {
		sw := metrics.NewStopwatch(s.b)
		for _, smp := range o.samples {
			if seg.markStatsSeen(o.c, smp.attr) {
				seg.stats.Merge(smp.attr, &smp.sum)
			}
		}
		sw.Stop(metrics.NoDB)
	}
	run.rowsDone += int64(o.nrows)
	if s.spec.Agg != nil {
		// Aggregation pushdown: the chunk's partial groups merge here, in
		// file order, and its row batch is never served. The merge keeps
		// nothing of the output, so it recycles, partial states included.
		err := s.mergePartials(o)
		s.st.recycle(o)
		return err
	}
	s.cur = o
	return nil
}

// endSegment closes segment i once its last result committed; io.EOF when
// it was the table's last.
func (s *Scan) endSegment(i int) error {
	run := s.st.runs[i]
	run.ended = true
	if err := run.reader.Close(); err != nil {
		return err
	}
	if i == len(s.segs)-1 {
		return io.EOF
	}
	return nil
}
