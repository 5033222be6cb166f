package core

import (
	"fmt"
	"io"
	"sync"

	"nodb/internal/faults"
	"nodb/internal/metrics"
	"nodb/internal/rawfile"
	"nodb/internal/sched"
)

// The chunk stream.
//
// A scan is one stream of (segment, chunk) tasks in table order, run in
// three stages:
//
//	step  --work items-->  executor  --results-->  ordered commit
//
// step walks the segments in order and the chunks of each in file order,
// opening a segment's file when the stream reaches its first chunk (an open
// failure is the stream's result at that position, so it surfaces in
// order). Chunks whose byte range is already known (base offsets learned by
// an earlier scan, or the row count known) become claims — the chunk task
// preads the range itself, so warm scans parallelize I/O, tokenizing and
// conversion alike. Over unknown territory step performs only the cheap
// sequential work that cannot be parallelized on a file with no index —
// reading ahead and finding row boundaries — and hands each raw chunk to a
// task, which runs the expensive selective-tokenize → convert → filter
// stage. Each task charges a private metrics.Breakdown and defers all
// adaptive-structure updates into its chunkOut.
//
// There are two executors. With Options.Parallelism = N > 1, step runs on
// one splitter goroutine and submits the tasks through one queue to the
// bounded DB-level pool (internal/sched), which multiplexes chunk work from
// all running scans with round-robin fairness across their queues. The
// stream has one window of K = windowPerWorker × N positions past the last
// commit: the splitter takes a slot for every position it hands out — a
// chunk task, or the result that ends a segment — and Scan.commit gives it
// back, so at most K results are queued, running, in flight or parked in
// pending at any moment, across segment boundaries alike. MaxWorkers caps
// how many chunk tasks the whole process executes at once; the pool runs
// zero goroutines when no scan is active. The consumer re-sequences results
// by stream position. With Parallelism = 1 the executor is inline: each
// pull runs one step and its task on the consumer's goroutine — no
// goroutine, no pool, no channel hand-off, and the raw chunk is processed
// in step's own read buffer instead of a copy.
//
// Either way chunks reach Scan.commit in (segment, chunk) order, so
// positional-map, cache and statistics population is deterministic —
// byte-identical at any worker count.

// windowPerWorker sizes a scan's window: K = windowPerWorker × Parallelism
// stream positions past the last commit. Tighter windows cost: one of
// Parallelism starved warm scans of read-ahead, one of 2 × Parallelism
// stretched the tail of queries after appends.
const windowPerWorker = 4

// testWindow, when > 0, replaces K for scans opened afterwards. Only tests
// set it.
var testWindow int

// workItem is one chunk assignment from step to a chunk task.
type workItem struct {
	pos    int // stream position
	seg    int // segment index within the scan
	c      int // chunk ID within the segment
	kind   int // srcFetch or srcRaw
	nrows  int
	known  bool
	ch     *rawfile.Chunk     // srcRaw: the split chunk (step's buffer inline, a pooled copy under the pool)
	splitB *metrics.Breakdown // srcRaw: split-stage charges for this chunk
}

// chunkPool recycles the splitter's chunk copies across workItems (and
// across scans). Each srcRaw dispatch used to allocate fresh Data/Start/End
// slices per chunk; with the pool a task returns the copy once the chunk's
// values are materialized (value parsing copies all bytes out), so steady
// state runs with about a window of chunk buffers total.
var chunkPool = sync.Pool{New: func() any { return new(rawfile.Chunk) }}

// Pooled chunk capacity caps: one wide-row file must not permanently
// inflate every pooled chunk for the life of the process, so buffers that
// grew past these bounds are dropped back to the GC instead of pooled.
const (
	maxPooledChunkBytes = 4 << 20  // Data capacity bound
	maxPooledChunkRows  = 64 << 10 // Start/End capacity bound (entries)
)

// putChunk recycles ch unless its buffers outgrew the pooling caps.
// Reports whether the chunk was pooled.
func putChunk(ch *rawfile.Chunk) bool {
	if cap(ch.Data) > maxPooledChunkBytes ||
		cap(ch.Start) > maxPooledChunkRows || cap(ch.End) > maxPooledChunkRows {
		return false
	}
	chunkPool.Put(ch)
	return true
}

// segRun is one opened segment of a scan: what the commit needs of it.
type segRun struct {
	seg      *Segment
	reader   *rawfile.Reader     // owns the segment's descriptor
	fp       rawfile.Fingerprint // file version the scan is reading
	rowsDone int64               // rows committed so far
	ended    bool                // its last result committed; reader closed
}

// checkFile compares the file's current fingerprint (via fstat on the open
// descriptor) against the version the scan started on. Called at every
// chunk boundary so a file changing under a running scan surfaces as a
// typed error instead of silently mixing two file versions.
func (r *segRun) checkFile() error {
	fp, err := r.reader.Fingerprint()
	if err != nil {
		return err
	}
	if fp == r.fp {
		return nil
	}
	if fp.Size < r.fp.Size {
		return faults.Truncated(r.seg.path,
			fmt.Sprintf("size %d -> %d mid-scan", r.fp.Size, fp.Size))
	}
	return faults.Changed(r.seg.path,
		fmt.Sprintf("fingerprint moved mid-scan (size %d -> %d)", r.fp.Size, fp.Size))
}

// stream is a scan's chunk stream: step's cursor, the executor that turns
// work items into results, and the ordered commit's pending results.
type stream struct {
	s    *Scan
	runs []*segRun // runs[i] once the stream opened segment i
	k    int       // the window

	// step's cursor. Touched only by whoever runs step: the splitter
	// goroutine under the pool executor, the consumer under the inline one.
	stepSeg int                  // segment of the next position
	stepC   int                  // next chunk ID within it
	stepPos int                  // next stream position
	view    *rawfile.Reader      // step's view of segment stepSeg; nil until opened
	cr      *rawfile.ChunkReader // sequential reader over unknown territory
	ch      rawfile.Chunk        // its read buffer

	free chan *chunkOut // committed outputs recycled back to tasks

	// Idle chunkWorker scratch, reused across tasks and segments of this
	// scan.
	wmu     sync.Mutex
	workers []*chunkWorker

	started bool // the consumer pulled once: PushAgg comes too late

	// Pool executor state; unset under the inline executor.
	q       *sched.Queue   // the scan's lane into the shared pool
	results chan *chunkOut // task/splitter results into the merge
	done    chan struct{}
	stop    sync.Once
	wg      sync.WaitGroup // splitter goroutine
	window  chan struct{}  // one slot per position handed out and not yet committed
	pending map[int]*chunkOut
	nextPos int // next stream position to commit
}

func newStream(s *Scan) stream {
	k := windowPerWorker * s.opts.Parallelism
	if testWindow > 0 {
		k = testWindow
	}
	// free holds every output that can be alive at once — k in the window
	// plus the one being served — so each committed output is reused.
	return stream{s: s, runs: make([]*segRun, len(s.segs)), k: k, free: make(chan *chunkOut, k+1)}
}

// open opens segment i for the stream.
func (st *stream) open(i int) (*segRun, error) {
	seg := st.s.segs[i]
	reader, fp, err := seg.open()
	if err != nil {
		return nil, err
	}
	seg.noteAccess(st.s.spec.Needed)
	r := &segRun{seg: seg, reader: reader, fp: fp}
	st.runs[i] = r
	return r, nil
}

// start spawns the splitter and registers the scan's queue with the DB's
// shared pool (or the process-default pool for direct core usage).
func (st *stream) start() {
	pool := st.s.opts.Scheduler
	if pool == nil {
		pool = sched.Default()
	}
	st.q = pool.NewQueue()
	// At most k results are outstanding (the window), plus one last-resort
	// splitter poison and one spare: sends never block a pool worker on a
	// slow consumer.
	st.results = make(chan *chunkOut, st.k+2)
	st.done = make(chan struct{})
	st.window = make(chan struct{}, st.k)
	st.pending = make(map[int]*chunkOut)
	st.wg.Add(1)
	go st.splitter()
}

// shutdown stops the splitter, drops the scan's queued tasks and waits for
// its running tasks to finish. After shutdown no task of this scan is
// executing, so the caller may close the readers. Safe to call more than
// once.
func (st *stream) shutdown() {
	if st.q == nil {
		return
	}
	st.stop.Do(func() { close(st.done) })
	st.q.Close()
	st.wg.Wait()
	st.pending = nil
}

// close shuts the executor down and releases every file handle still open.
// Idempotent.
func (st *stream) close() error {
	st.shutdown()
	var first error
	for _, r := range st.runs {
		if r == nil || r.ended {
			continue
		}
		r.ended = true
		if err := r.reader.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// release gives back the window slot of one committed position.
func (st *stream) release() {
	if st.window != nil {
		<-st.window
	}
}

// recycle offers a committed output's buffers back to the chunk tasks.
func (st *stream) recycle(o *chunkOut) {
	select {
	case st.free <- o:
	default:
	}
}

// terminal builds a result that carries no chunk: end of data, a count
// served from metadata, or a failure.
func terminal(c int) *chunkOut {
	return &chunkOut{c: c, countFinal: -1, base: -1, nextBase: -1}
}

// step yields the next position of the stream: a work item for a chunk
// task, or the terminal result that ends a segment (end of data, a COUNT(*)
// answered from metadata, an open or read failure), after which the cursor
// moves to the next segment. A panic — a fault injected under the read,
// say — is contained as a poison result, which ends the stream.
func (st *stream) step() (it workItem, term *chunkOut) {
	s, si, c, pos := st.s, st.stepSeg, st.stepC, st.stepPos
	seg := s.segs[si]
	st.stepPos++
	defer func() {
		if rec := recover(); rec != nil {
			term = terminal(c)
			term.poison, term.err = true, faults.Panicked(seg.path, c, rec)
		}
		if term != nil {
			term.pos, term.seg = pos, si
			st.stepSeg, st.stepC, st.view, st.cr = si+1, 0, nil, nil
		}
	}()
	if st.view == nil {
		run := st.runs[si]
		if run == nil {
			var err error
			if run, err = st.open(si); err != nil {
				term = terminal(c)
				term.err = err
				return it, term
			}
		}
		st.view = run.reader.View(nil)
		st.cr = rawfile.NewChunkReader(st.view, s.opts.BlockSize)
	}
	it = workItem{pos: pos, seg: si, c: c}
	if total := seg.RowCount(); total >= 0 {
		// Row count known (possibly learned mid-scan by a concurrent
		// query): every chunk base is known, so tasks claim chunks
		// outright; COUNT(*)-style scans need no attribute data and finish
		// from metadata alone, without touching the file.
		if len(s.spec.Needed) == 0 && s.spec.Filter == nil {
			term = terminal(c)
			term.countFinal = total
			return it, term
		}
		nrows, _ := seg.rowsInChunk(c)
		if nrows == 0 {
			term = terminal(c)
			term.eof = true
			return it, term
		}
		st.stepC++
		it.kind, it.nrows, it.known = srcFetch, nrows, true
		return it, nil
	}
	base, okBase := seg.chunkBase(c)
	if _, okNext := seg.chunkBase(c + 1); okBase && okNext {
		// Bases bracket the chunk (a full chunk from an earlier, possibly
		// partial, scan): the task preads it itself.
		st.stepC++
		it.kind, it.nrows = srcFetch, s.opts.ChunkRows
		return it, nil
	}
	// Unknown territory: do the only inherently sequential work — read
	// ahead and find row boundaries — and hand the raw chunk to a task
	// for the expensive tokenize/convert/filter stage.
	b := &metrics.Breakdown{}
	st.view.SetBreakdown(b)
	if okBase && st.cr.Offset() != base {
		st.cr.SeekTo(base)
	}
	err := chargeBreakdown(b, metrics.Tokenizing, func() error {
		return st.cr.NextChunk(s.opts.ChunkRows, &st.ch)
	})
	if err != nil {
		term = terminal(c)
		term.b = b
		if err == io.EOF {
			term.eof = true
		} else {
			term.err = err
		}
		return it, term
	}
	st.stepC++
	it.kind, it.nrows, it.ch, it.splitB = srcRaw, st.ch.Rows, &st.ch, b
	return it, nil
}

// pull returns the stream's next result in position order. Inline, that is
// one step plus its task, run here. Under the pool it is the ordered merge:
// out-of-order arrivals park in pending, which the window bounds at k.
func (st *stream) pull() (*chunkOut, error) {
	st.started = true
	if st.s.opts.Parallelism <= 1 {
		it, term := st.step()
		if term != nil {
			return term, nil
		}
		return st.execute(it), nil
	}
	if st.q == nil {
		st.start()
	}
	var ctxDone <-chan struct{}
	if st.s.spec.Ctx != nil {
		ctxDone = st.s.spec.Ctx.Done()
	}
	for {
		if o, ok := st.pending[st.nextPos]; ok {
			delete(st.pending, st.nextPos)
			st.nextPos++
			if o.eof || o.err != nil || o.countFinal >= 0 {
				if err := st.drainPoison(); err != nil {
					return nil, err
				}
			}
			return o, nil
		}
		// Waiting for the next in-order result must not outlive the
		// context: with the splitter stopped by cancellation no more
		// results may ever arrive, so block on both.
		select {
		case o := <-st.results:
			if o.poison {
				// Last-resort panic containment: the emitting side could not
				// tie the failure to a reliable position, so parking it in
				// pending could stall the merge forever. Poison is terminal
				// regardless of position.
				st.shutdown()
				return nil, o.err
			}
			st.pending[o.pos] = o
		case <-ctxDone:
			st.shutdown()
			return nil, st.s.spec.Ctx.Err()
		}
	}
}

// drainPoison runs just before pull hands out a result that ends a
// segment: it takes whatever already waits in results, without blocking,
// and fails on any poison. The merge may have parked every remaining
// result in pending, and then serves them without reading results again —
// a poison sent meanwhile would otherwise never be seen. Results that are
// not poison are parked like any other.
func (st *stream) drainPoison() error {
	for {
		select {
		case o := <-st.results:
			if o.poison {
				st.shutdown()
				return o.err
			}
			st.pending[o.pos] = o
		default:
			return nil
		}
	}
}

// acquire takes a window slot for the next position, blocking while k
// positions are outstanding; false once the stream is shut down.
func (st *stream) acquire() bool {
	select {
	case st.window <- struct{}{}:
		return true
	case <-st.done:
		return false
	}
}

// emit sends a result (or end/error marker) straight into the merge.
func (st *stream) emit(o *chunkOut) bool {
	select {
	case st.results <- o:
		return true
	case <-st.done:
		return false
	}
}

// task wraps one work item as a pool task. Exactly one result is sent per
// task — the processed chunk, or a poison marker if the bookkeeping around
// chunk processing itself panicked (chunkWorker.run and execute recover
// everything inside the per-chunk path into typed per-chunk errors; this
// is the last resort for failures outside that scope).
func (st *stream) task(it workItem) sched.Task {
	return func() {
		delivered := false
		defer func() {
			if rec := recover(); rec != nil && !delivered {
				o := terminal(it.c)
				o.poison, o.err = true, faults.Panicked(st.s.segs[it.seg].path, it.c, rec)
				st.emit(o)
			}
		}()
		out := st.execute(it)
		if it.ch != nil {
			// The chunk's bytes are fully materialized into the output (value
			// parsing copies); recycle the splitter's copy for a later item.
			putChunk(it.ch)
		}
		if out.b != nil {
			out.b.SchedTasks++
		}
		delivered = true
		st.emit(out)
	}
}

// execute processes one work item on idle chunk-worker scratch (building a
// worker when none is idle, moving it to the item's segment otherwise),
// containing any panic — from worker construction, the worker stage itself
// or user predicates — as a typed error result, so one poisoned chunk fails
// the query through the ordered commit instead of crashing the process.
// chunkWorker.run has its own recover; this is the safety net for the
// surrounding bookkeeping.
func (st *stream) execute(it workItem) (out *chunkOut) {
	run := st.runs[it.seg]
	w := st.takeWorker()
	defer func() {
		if rec := recover(); rec != nil {
			out = terminal(it.c)
			out.err = faults.Panicked(run.seg.path, it.c, rec)
		}
		out.pos, out.seg = it.pos, it.seg
		if w != nil {
			st.putWorker(w)
		}
	}()
	if w == nil {
		w = newChunkWorker(run.seg, st.s.opts, st.s.spec, run.reader.View(nil), st.free)
	} else if w.t != run.seg {
		w.t, w.reader = run.seg, run.reader.View(nil)
	}
	b := &metrics.Breakdown{}
	if it.splitB != nil {
		b.Merge(it.splitB)
	}
	w.b = b
	w.reader.SetBreakdown(b)
	out = w.run(it.c, chunkSrc{kind: it.kind, nrows: it.nrows, known: it.known, ch: it.ch})
	out.b = b
	return out
}

// takeWorker pops idle chunk-worker scratch, if any.
func (st *stream) takeWorker() *chunkWorker {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	if n := len(st.workers); n > 0 {
		w := st.workers[n-1]
		st.workers = st.workers[:n-1]
		return w
	}
	return nil
}

// putWorker returns scratch for the next task of this scan.
func (st *stream) putWorker(w *chunkWorker) {
	st.wmu.Lock()
	st.workers = append(st.workers, w)
	st.wmu.Unlock()
}

// splitter runs step on its own goroutine, feeding the pool in stream
// order under the window, until the last segment's terminal result.
func (st *stream) splitter() {
	defer st.wg.Done()
	// step contains its own panics; this is the last resort for the loop
	// around it, so a failure here cannot kill the process or strand the
	// merge.
	defer func() {
		if rec := recover(); rec != nil {
			o := terminal(st.stepC)
			o.poison, o.err = true, faults.Panicked(st.s.t.location, st.stepC, rec)
			st.emit(o)
		}
	}()
	var ctxDone <-chan struct{}
	if st.s.spec.Ctx != nil {
		ctxDone = st.s.spec.Ctx.Done()
	}
	for st.stepSeg < len(st.runs) {
		select {
		case <-st.done:
			return
		case <-ctxDone:
			// Cancelled: stop reading ahead; the consumer notices on its own.
			return
		default:
		}
		it, term := st.step()
		if term != nil {
			if !st.acquire() || !st.emit(term) || term.poison {
				return
			}
			continue
		}
		if it.ch != nil {
			// The raw chunk aliases step's read buffer, which the next step
			// overwrites: it crosses to the pool task as a pooled copy.
			sw := metrics.NewStopwatch(it.splitB)
			it.ch = copyChunk(it.ch)
			sw.Stop(metrics.Tokenizing)
		}
		if !st.acquire() {
			if it.ch != nil {
				putChunk(it.ch)
			}
			return
		}
		st.q.Submit(st.task(it))
	}
}

// copyChunk copies a chunk out of the splitter's reused read buffer into a
// pooled chunk so it can cross to a pool task; capacities are reused
// across workItems (up to the putChunk caps).
func copyChunk(src *rawfile.Chunk) *rawfile.Chunk {
	dst := chunkPool.Get().(*rawfile.Chunk)
	dst.Base = src.Base
	dst.Rows = src.Rows
	dst.Data = append(dst.Data[:0], src.Data...)
	dst.Start = append(dst.Start[:0], src.Start...)
	dst.End = append(dst.End[:0], src.End...)
	return dst
}
