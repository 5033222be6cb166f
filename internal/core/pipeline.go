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

// The chunk pipeline.
//
// Every open segment of a scan runs three stages:
//
//	step  --work items-->  executor  --results-->  ordered commit
//
// step walks chunk IDs in file order. Chunks whose byte range is already
// known (base offsets learned by an earlier scan, or the row count known)
// become claims — the chunk task preads the range itself, so warm scans
// parallelize I/O, tokenizing and conversion alike. Over unknown territory
// step performs only the cheap sequential work that cannot be parallelized
// on a file with no index — reading ahead and finding row boundaries — and
// hands each raw chunk to a task, which runs the expensive
// selective-tokenize → convert → filter stage. Each task charges a private
// metrics.Breakdown and defers all adaptive-structure updates into its
// chunkOut.
//
// There are two executors. With Options.Parallelism = N > 1, step runs on a
// splitter goroutine and submits the tasks to one bounded DB-level pool
// (internal/sched), which multiplexes chunk work from all running scans
// with round-robin fairness across their queues. Parallelism caps this
// segment's outstanding submissions (the read-ahead window, enforced by
// p.sem); MaxWorkers caps how many chunk tasks the whole process executes
// at once. The pool runs zero goroutines when no scan is active. The
// consumer re-sequences results by chunk ID. With Parallelism = 1 the
// executor is inline: each pull runs one step and its task on the
// consumer's goroutine — no goroutine, no pool, no channel hand-off, and
// the raw chunk is processed in step's own read buffer instead of a copy.
//
// Either way chunks reach Scan.commit in file order, so positional-map,
// cache and statistics population is deterministic — byte-identical at any
// worker count.

// workItem is one chunk assignment from the splitter to a chunk task.
type workItem struct {
	c      int
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
// state runs with ~Parallelism+queue chunk buffers total.
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

// pipeline is one open segment of a scan: the segment's file handle and
// commit position, step's cursor, and the executor that turns work items
// into results.
type pipeline struct {
	s        *Scan
	seg      *Segment
	reader   *rawfile.Reader     // owns the segment's descriptor; nil once closed
	fp       rawfile.Fingerprint // file version the scan is reading
	rowsDone int64               // rows committed so far

	// step's cursor. Touched only by whoever runs step: the splitter
	// goroutine under the pool executor, the consumer under the inline one.
	stepC int                  // next chunk ID to yield
	view  *rawfile.Reader      // step's view of the file
	cr    *rawfile.ChunkReader // sequential reader over unknown territory
	ch    rawfile.Chunk        // its read buffer

	free chan *chunkOut // committed outputs recycled back to tasks

	// Idle chunkWorker scratch, reused across tasks of this segment. At most
	// Parallelism workers are ever live (bounded by sem).
	wmu     sync.Mutex
	workers []*chunkWorker

	// Pool executor state; unset under the inline executor.
	started bool
	q       *sched.Queue   // this segment's lane into the shared pool
	results chan *chunkOut // task/splitter results into the merge
	done    chan struct{}
	stop    sync.Once
	wg      sync.WaitGroup // splitter goroutine
	// sem bounds outstanding submissions at Parallelism: acquired by the
	// splitter per dispatch, released by the merge per received task
	// result. This is the segment's read-ahead window and the pool's
	// backpressure — queues never hold more than a window of chunks.
	sem     chan struct{}
	pending map[int]*chunkOut // out-of-order results awaiting their turn
	nextC   int               // next chunk ID to commit
}

// newPipeline wraps a freshly opened segment. Nothing runs until the first
// pull (or start, for a prefetched segment).
func newPipeline(s *Scan, seg *Segment, reader *rawfile.Reader, fp rawfile.Fingerprint) *pipeline {
	p := &pipeline{
		s: s, seg: seg, reader: reader, fp: fp,
		view: reader.View(nil),
		free: make(chan *chunkOut, 2*s.opts.Parallelism+1),
	}
	p.cr = rawfile.NewChunkReader(p.view, s.opts.BlockSize)
	return p
}

// start spawns the splitter and registers a queue with the DB's shared
// pool (or the process-default pool for direct core usage). The look-ahead
// window calls it on prefetched segments so their chunk tasks overlap with
// the current segment's. Side effects still publish only at commit, on the
// consumer goroutine, once the segment is current, so starting early never
// changes rows, counters or adaptive-structure contents; a started segment
// that is closed undrained (LIMIT, cancellation) publishes nothing. No-op
// for the inline executor and for pipelines already started.
func (p *pipeline) start() {
	n := p.s.opts.Parallelism
	if p.started || n <= 1 {
		return
	}
	p.started = true
	pool := p.s.opts.Scheduler
	if pool == nil {
		pool = sched.Default()
	}
	p.q = pool.NewQueue()
	// At most n un-received task results exist at any moment (sem), plus
	// one terminal splitter emit and one last-resort poison: task sends
	// never block a pool worker on a slow consumer.
	p.results = make(chan *chunkOut, n+2)
	p.done = make(chan struct{})
	p.sem = make(chan struct{}, n)
	p.pending = make(map[int]*chunkOut)
	p.wg.Add(1)
	go p.splitter()
}

// shutdown stops the splitter, drops this segment's queued tasks and waits
// for its running tasks to finish. After shutdown no task of this segment
// is executing, so the caller may close the reader. Safe to call more than
// once.
func (p *pipeline) shutdown() {
	if !p.started {
		return
	}
	p.stop.Do(func() { close(p.done) })
	p.q.Close()
	p.wg.Wait()
	p.pending = nil
}

// close shuts the executor down and releases the segment's file handle.
// Idempotent.
func (p *pipeline) close() error {
	p.shutdown()
	if p.reader == nil {
		return nil
	}
	err := p.reader.Close()
	p.reader = nil
	return err
}

// checkFile compares the file's current fingerprint (via fstat on the open
// descriptor) against the version the scan started on. Called at every
// chunk boundary so a file changing under a running scan surfaces as a
// typed error instead of silently mixing two file versions.
func (p *pipeline) checkFile() error {
	fp, err := p.reader.Fingerprint()
	if err != nil {
		return err
	}
	if fp == p.fp {
		return nil
	}
	if fp.Size < p.fp.Size {
		return faults.Truncated(p.seg.path,
			fmt.Sprintf("size %d -> %d mid-scan", p.fp.Size, fp.Size))
	}
	return faults.Changed(p.seg.path,
		fmt.Sprintf("fingerprint moved mid-scan (size %d -> %d)", p.fp.Size, fp.Size))
}

// recycle offers a committed output's buffers back to the chunk tasks.
func (p *pipeline) recycle(o *chunkOut) {
	select {
	case p.free <- o:
	default:
	}
}

// terminal builds a result that carries no chunk: end of data, a count
// served from metadata, or a failure.
func terminal(c int) *chunkOut {
	return &chunkOut{c: c, countFinal: -1, base: -1, nextBase: -1}
}

// step yields the next unit of work in chunk order: a work item for a chunk
// task, or the terminal result that ends the segment (end of data, a
// COUNT(*) answered from metadata, a read failure). A panic — a fault
// injected under the read, say — is contained as a poison result: it may
// have fired after the chunk ID advanced, so no ID can be trusted.
func (p *pipeline) step() (it workItem, term *chunkOut) {
	s, seg, c := p.s, p.seg, p.stepC
	defer func() {
		if rec := recover(); rec != nil {
			term = terminal(c)
			term.poison, term.err = true, faults.Panicked(seg.path, c, rec)
		}
	}()
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
		p.stepC++
		return workItem{c: c, kind: srcFetch, nrows: nrows, known: true}, nil
	}
	base, okBase := seg.chunkBase(c)
	if _, okNext := seg.chunkBase(c + 1); okBase && okNext {
		// Bases bracket the chunk (a full chunk from an earlier, possibly
		// partial, scan): the task preads it itself.
		p.stepC++
		return workItem{c: c, kind: srcFetch, nrows: s.opts.ChunkRows}, nil
	}
	// Unknown territory: do the only inherently sequential work — read
	// ahead and find row boundaries — and hand the raw chunk to a task
	// for the expensive tokenize/convert/filter stage.
	b := &metrics.Breakdown{}
	p.view.SetBreakdown(b)
	if okBase && p.cr.Offset() != base {
		p.cr.SeekTo(base)
	}
	err := chargeBreakdown(b, metrics.Tokenizing, func() error {
		return p.cr.NextChunk(s.opts.ChunkRows, &p.ch)
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
	p.stepC++
	return workItem{c: c, kind: srcRaw, nrows: p.ch.Rows, ch: &p.ch, splitB: b}, nil
}

// pull returns the segment's next result in chunk order. Inline, that is
// one step plus its task, run here. Under the pool it is the ordered merge:
// out-of-order arrivals park in pending. The sem slot is released when a
// result is received, not when it is committed, so behind a slow head chunk
// pending is bounded only by the segment's chunk count, not by the
// read-ahead window (ROADMAP item 0 is the open fix).
func (p *pipeline) pull() (*chunkOut, error) {
	if p.s.opts.Parallelism <= 1 {
		it, term := p.step()
		if term != nil {
			return term, nil
		}
		return p.execute(it), nil
	}
	p.start()
	var ctxDone <-chan struct{}
	if p.s.spec.Ctx != nil {
		ctxDone = p.s.spec.Ctx.Done()
	}
	for {
		if o, ok := p.pending[p.nextC]; ok {
			delete(p.pending, p.nextC)
			p.nextC++
			if o.eof || o.err != nil || o.countFinal >= 0 {
				if err := p.drainPoison(); err != nil {
					return nil, err
				}
			}
			return o, nil
		}
		// Waiting for the next in-order chunk must not outlive the context:
		// with the splitter stopped by cancellation no more results may ever
		// arrive, so block on both.
		select {
		case o := <-p.results:
			if o.viaPool {
				<-p.sem
			}
			if o.poison {
				// Last-resort panic containment: the emitting side could not
				// tie the failure to a reliable chunk ID (it may be -1 or a
				// chunk already delivered), so parking it in pending could
				// stall the merge forever. Poison is terminal regardless of
				// chunk ID.
				p.shutdown()
				return nil, o.err
			}
			p.pending[o.c] = o
		case <-ctxDone:
			p.shutdown()
			return nil, p.s.spec.Ctx.Err()
		}
	}
}

// drainPoison runs once per segment, just before pull hands out the result
// that ends it: it takes whatever already waits in results, without
// blocking, and fails on any poison. The merge may have parked every
// remaining chunk and the terminal result in pending, and then serves them
// without reading results again — a poison sent meanwhile would otherwise
// never be seen. Results that are not poison (chunks read ahead of a
// failing one) are parked like any other.
func (p *pipeline) drainPoison() error {
	for {
		select {
		case o := <-p.results:
			if o.viaPool {
				<-p.sem
			}
			if o.poison {
				p.shutdown()
				return o.err
			}
			p.pending[o.c] = o
		default:
			return nil
		}
	}
}

// dispatch submits a chunk claim to the shared pool under the read-ahead
// window: it blocks while Parallelism submissions are outstanding and
// returns false once the pipeline is shut down.
func (p *pipeline) dispatch(it workItem) bool {
	select {
	case p.sem <- struct{}{}:
	case <-p.done:
		return false
	}
	p.q.Submit(p.task(it))
	return true
}

// emit sends a result (or end/error marker) straight into the merge.
func (p *pipeline) emit(o *chunkOut) bool {
	select {
	case p.results <- o:
		return true
	case <-p.done:
		return false
	}
}

// task wraps one work item as a pool task. Exactly one result is sent per
// task — the processed chunk, or a poison marker if the bookkeeping around
// chunk processing itself panicked (chunkWorker.run and execute recover
// everything inside the per-chunk path into typed per-chunk errors; this
// is the last resort for failures outside that scope, where no chunk ID
// can be trusted).
func (p *pipeline) task(it workItem) sched.Task {
	return func() {
		delivered := false
		defer func() {
			if rec := recover(); rec != nil && !delivered {
				o := terminal(it.c)
				o.poison, o.viaPool, o.err = true, true, faults.Panicked(p.seg.path, it.c, rec)
				p.emit(o)
			}
		}()
		out := p.execute(it)
		if it.ch != nil {
			// The chunk's bytes are fully materialized into the output (value
			// parsing copies); recycle the splitter's copy for a later item.
			putChunk(it.ch)
		}
		if out.b != nil {
			out.b.SchedTasks++
		}
		out.viaPool = true
		delivered = true
		p.emit(out)
	}
}

// execute processes one work item on idle chunk-worker scratch (building a
// worker when none is idle), containing any panic — from worker
// construction, the worker stage itself or user predicates — as a typed
// error result, so one poisoned chunk fails the query through the ordered
// commit instead of crashing the process. chunkWorker.run has its own
// recover; this is the safety net for the surrounding bookkeeping.
func (p *pipeline) execute(it workItem) (out *chunkOut) {
	w := p.takeWorker()
	defer func() {
		if rec := recover(); rec != nil {
			out = terminal(it.c)
			out.err = faults.Panicked(p.seg.path, it.c, rec)
		}
		if w != nil {
			p.putWorker(w)
		}
	}()
	if w == nil {
		w = newChunkWorker(p.seg, p.s.opts, p.s.spec, p.reader.View(nil), p.free)
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
func (p *pipeline) takeWorker() *chunkWorker {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if n := len(p.workers); n > 0 {
		w := p.workers[n-1]
		p.workers = p.workers[:n-1]
		return w
	}
	return nil
}

// putWorker returns scratch for the next task of this scan.
func (p *pipeline) putWorker(w *chunkWorker) {
	p.wmu.Lock()
	p.workers = append(p.workers, w)
	p.wmu.Unlock()
}

// splitter runs step on its own goroutine, feeding the pool in file order.
func (p *pipeline) splitter() {
	defer p.wg.Done()
	// step contains its own panics; this is the last resort for the loop
	// around it, so a failure here cannot kill the process or strand the
	// merge.
	defer func() {
		if rec := recover(); rec != nil {
			o := terminal(p.stepC)
			o.poison, o.err = true, faults.Panicked(p.seg.path, p.stepC, rec)
			p.emit(o)
		}
	}()
	var ctxDone <-chan struct{}
	if p.s.spec.Ctx != nil {
		ctxDone = p.s.spec.Ctx.Done()
	}
	for {
		select {
		case <-p.done:
			return
		case <-ctxDone:
			// Cancelled: stop reading ahead; the consumer notices on its own.
			return
		default:
		}
		it, term := p.step()
		if term != nil {
			p.emit(term)
			return
		}
		if it.ch != nil {
			// The raw chunk aliases step's read buffer, which the next step
			// overwrites: it crosses to the pool task as a pooled copy.
			sw := metrics.NewStopwatch(it.splitB)
			it.ch = copyChunk(it.ch)
			sw.Stop(metrics.Tokenizing)
		}
		if !p.dispatch(it) {
			if it.ch != nil {
				putChunk(it.ch)
			}
			return
		}
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
