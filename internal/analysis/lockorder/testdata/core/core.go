// Fixture under test for the lockorder analyzer. Dep: storage (exports
// lockorder.io / lockorder.acquires facts and an A->B edge).
package core

import (
	"os"
	"sync"

	"storage"
)

type T struct {
	mu    sync.Mutex
	state int
}

type T2 struct {
	a, b sync.Mutex
}

// clean critical section: compute only.
func (t *T) Bump() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.state++
}

// unlockFirst releases before the I/O: clean.
func (t *T) unlockFirst(path string) {
	t.mu.Lock()
	t.state++
	t.mu.Unlock()
	os.Remove(path)
}

// directIO holds the lock across a leaf syscall.
func (t *T) directIO(path string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	os.Remove(path) // want `call to os\.Remove performs leaf I/O while holding \(core\.T\)\.mu`
}

// factIO reaches the I/O only through the storage package's fact.
func (t *T) factIO(path string, data []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	storage.Flush(path, data) // want `call to storage\.Flush performs leaf I/O while holding \(core\.T\)\.mu`
}

// helperIO reaches the I/O through a same-package helper.
func (t *T) helperIO(path string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushLocal(path) // want `call to \(\*core\.T\)\.flushLocal performs leaf I/O while holding \(core\.T\)\.mu`
}

func (t *T) flushLocal(path string) {
	os.WriteFile(path, nil, 0o644)
}

// suppressedIO carries a justification: settled.
func (t *T) suppressedIO(path string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	//nodbvet:lockorder-ok fixture: shutdown path, no scan can hold this lock concurrently
	os.Remove(path)
}

// channel operations under a lock.
func (t *T) chanOps(ch chan int, done chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ch <- 1  // want `channel send while holding \(core\.T\)\.mu`
	<-ch     // want `channel receive while holding \(core\.T\)\.mu`
	select { // want `select while holding \(core\.T\)\.mu`
	case <-done:
	default:
	}
}

// rangeChan drains a channel under the lock.
func (t *T) rangeChan(ch chan int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for range ch { // want `range over channel while holding \(core\.T\)\.mu`
		t.state++
	}
}

// branchSend: the conditional lock is tracked into the branch.
func (t *T) branchSend(ch chan int, hot bool) {
	if hot {
		t.mu.Lock()
		ch <- 1 // want `channel send while holding \(core\.T\)\.mu`
		t.mu.Unlock()
	}
	ch <- 2
}

// doubleLock self-deadlocks.
func (t *T) doubleLock() {
	t.mu.Lock()
	t.mu.Lock() // want `acquires \(core\.T\)\.mu while already holding it`
	t.mu.Unlock()
	t.mu.Unlock()
}

// lockAB and lockBA together close an intra-package ordering cycle; each
// closing edge is reported.
func (t *T2) lockAB() {
	t.a.Lock()
	defer t.a.Unlock()
	t.b.Lock() // want `acquiring \(core\.T2\)\.b while holding \(core\.T2\)\.a closes a lock-ordering cycle`
	t.b.Unlock()
}

func (t *T2) lockBA() {
	t.b.Lock()
	defer t.b.Unlock()
	t.a.Lock() // want `acquiring \(core\.T2\)\.a while holding \(core\.T2\)\.b closes a lock-ordering cycle`
	t.a.Unlock()
}

// crossCycle closes a cycle against storage's exported A->B edge by
// taking B before A here.
func crossCycle(p *storage.Pair) {
	p.B.Lock()
	defer p.B.Unlock()
	p.A.Lock() // want `acquiring \(storage\.Pair\)\.A while holding \(storage\.Pair\)\.B closes a lock-ordering cycle`
	p.A.Unlock()
}

// nestedOK: holding our mutex while taking the store's is an edge, not a
// cycle — clean.
func (t *T) nestedOK(s *storage.Store) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.WithLock(func() {})
}
