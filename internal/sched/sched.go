// Package sched provides the DB-level chunk-work scheduler: one bounded
// worker pool multiplexing chunk tasks from all running scans.
//
// Each scan (or each query, for sharded scans) registers a Queue and
// submits its chunk tasks there. The pool draws tasks round-robin across
// queues, so a query that floods the scheduler cannot starve the others:
// at every claim the pool advances to the next non-empty queue, giving
// each active query one task per rotation (per-query fair queuing).
//
// Workers are spawned on demand, up to the pool's bound, and exit as soon
// as no queued task remains anywhere. The pool therefore holds zero
// goroutines at quiescence — idle databases park nothing, and goroutine
// leak checks see an empty pool between queries. Backpressure is the
// submitter's job: pipelines bound their outstanding submissions (see
// core.pipeline's read-ahead window), so queues stay shallow and the
// unbounded per-queue buffer is a formality, not a memory hazard.
package sched

import (
	"runtime"
	"sync"
)

// Task is one unit of chunk work. Tasks must not panic: the pool has no
// recovery of its own, so submitters wrap their work with their own
// last-resort recover (core routes panics into typed poison results).
type Task func()

// Pool is a bounded worker pool shared by every scan of one DB.
type Pool struct {
	max int

	mu      sync.Mutex
	queues  []*Queue // registered queues, in round-robin order
	rr      int      // next queue index to offer work from
	running int      // live worker goroutines
	depth   int      // queued tasks across all queues

	// Telemetry (guarded by mu, surfaced via Stats).
	tasksRun  uint64 // tasks claimed (counted in next)
	steals    uint64 // claims that skipped ahead past the round-robin head
	maxDepth  int
	maxQueues int
}

// NewPool returns a pool bounded at max concurrent workers. max < 1 is
// clamped to 1.
func NewPool(max int) *Pool {
	if max < 1 {
		max = 1
	}
	return &Pool{max: max}
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide fallback pool, bounded at GOMAXPROCS.
// DBs built through nodb.Open own their own pool; Default covers direct
// core usage (tests, embedding) so that even then chunk work runs under
// one shared bound.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = NewPool(runtime.GOMAXPROCS(0)) })
	return defaultPool
}

// MaxWorkers reports the pool bound.
func (p *Pool) MaxWorkers() int { return p.max }

// Stats is a point-in-time snapshot of the pool.
type Stats struct {
	MaxWorkers int    // configured bound
	Running    int    // live workers right now
	Queues     int    // registered queues right now
	Queued     int    // tasks waiting across all queues
	TasksRun   uint64 // tasks claimed for execution since the pool was created
	Steals     uint64 // claims taken from a queue past the rotation head
	MaxDepth   int    // high-water mark of Queued
	MaxQueues  int    // high-water mark of Queues
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		MaxWorkers: p.max,
		Running:    p.running,
		Queues:     len(p.queues),
		Queued:     p.depth,
		TasksRun:   p.tasksRun,
		Steals:     p.steals,
		MaxDepth:   p.maxDepth,
		MaxQueues:  p.maxQueues,
	}
}

// Queue is one submitter's FIFO lane into the pool. All methods are safe
// for concurrent use.
type Queue struct {
	p       *Pool
	tasks   []Task
	head    int
	running int // tasks of this queue currently executing
	closed  bool
	idle    sync.Cond // signalled when running hits zero on a closed queue
}

// NewQueue registers a fresh lane with the pool.
func (p *Pool) NewQueue() *Queue {
	q := &Queue{p: p}
	q.idle.L = &p.mu
	p.mu.Lock()
	p.queues = append(p.queues, q)
	if len(p.queues) > p.maxQueues {
		p.maxQueues = len(p.queues)
	}
	p.mu.Unlock()
	return q
}

// Submit enqueues one task. It never blocks; if the queue is closed the
// task is dropped (the submitter is already tearing down). A worker is
// spawned unless the pool is at its bound — in which case an existing
// worker picks the task up on its next claim.
func (q *Queue) Submit(t Task) {
	p := q.p
	p.mu.Lock()
	if q.closed {
		p.mu.Unlock()
		return
	}
	q.tasks = append(q.tasks, t)
	p.depth++
	if p.depth > p.maxDepth {
		p.maxDepth = p.depth
	}
	if p.running < p.max {
		p.running++
		go p.worker()
	}
	p.mu.Unlock()
}

// Close deregisters the queue, drops its unstarted tasks, and blocks until
// tasks of this queue already running have finished. After Close returns no
// task of this queue is executing or will ever execute, so the submitter
// may release resources the tasks referenced (readers, buffers).
func (q *Queue) Close() {
	p := q.p
	p.mu.Lock()
	if !q.closed {
		q.closed = true
		p.depth -= len(q.tasks) - q.head
		q.tasks, q.head = nil, 0
		for i, o := range p.queues {
			if o == q {
				p.queues = append(p.queues[:i], p.queues[i+1:]...)
				if p.rr > i {
					p.rr--
				}
				break
			}
		}
	}
	for q.running > 0 {
		q.idle.Wait()
	}
	p.mu.Unlock()
}

// next claims the first available task, scanning queues from the rotation
// head. Called with p.mu held.
func (p *Pool) next() (*Queue, Task) {
	n := len(p.queues)
	for i := 0; i < n; i++ {
		j := p.rr + i
		if j >= n {
			j -= n
		}
		q := p.queues[j]
		if q.head < len(q.tasks) {
			t := q.tasks[q.head]
			q.tasks[q.head] = nil
			q.head++
			if q.head == len(q.tasks) {
				q.tasks, q.head = q.tasks[:0], 0
			}
			p.depth--
			// Counted at claim, under the lock every Stats reader takes: a
			// caller that synchronizes on a task's own side effect then
			// always sees that task counted, which a bump after t() returns
			// cannot promise.
			p.tasksRun++
			if i != 0 {
				p.steals++
			}
			p.rr = j + 1
			if p.rr >= n {
				p.rr = 0
			}
			return q, t
		}
	}
	return nil, nil
}

// worker drains tasks until no queue has work, then exits. The exit
// decision and the running-count decrement happen under the same lock as
// Submit's spawn decision, so a task enqueued concurrently with an exiting
// worker always has a worker: either the exiting one re-checks and finds
// it, or Submit observes the decremented count and spawns anew.
func (p *Pool) worker() {
	p.mu.Lock()
	for {
		q, t := p.next()
		if t == nil {
			p.running--
			p.mu.Unlock()
			return
		}
		q.running++
		p.mu.Unlock()
		t()
		p.mu.Lock()
		q.running--
		if q.closed && q.running == 0 {
			q.idle.Broadcast()
		}
	}
}
