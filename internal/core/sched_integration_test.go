package core

import (
	"errors"
	"testing"
	"time"

	"nodb/internal/faults"
	"nodb/internal/metrics"
	"nodb/internal/rawfile"
	"nodb/internal/sched"
)

// TestPoisonNoStall is the regression test for the last-resort recover
// stall: a panic result whose chunk ID cannot be trusted (-1 before any
// claim, or a chunk ID the merge already delivered) used to park in
// pending forever. Poison markers must fail the scan promptly — without
// any context deadline backstopping the test.
func TestPoisonNoStall(t *testing.T) {
	path, _ := genCSV(t, 1000)
	for _, c := range []int{-1, 0} {
		tbl := newTable(t, path, parOptions(2))
		b := &metrics.Breakdown{}
		sc, err := tbl.OpenScan(ScanSpec{Needed: []int{0}, B: b})
		if err != nil {
			t.Fatal(err)
		}
		rc := rowsOf(sc)
		// First row starts the pipeline and commits chunk 0 — so a poison
		// with c=0 is a re-emit of an already-delivered chunk ID.
		if _, ok, err := rc.Next(); err != nil || !ok {
			t.Fatalf("first row: ok=%v err=%v", ok, err)
		}
		sc.st.results <- &chunkOut{c: c, poison: true,
			err:        faults.Panicked(path, c, "injected last-resort panic"),
			countFinal: -1, base: -1, nextBase: -1}

		done := make(chan error, 1)
		go func() {
			for {
				if _, ok, err := rc.Next(); err != nil || !ok {
					done <- err
					return
				}
			}
		}()
		select {
		case err := <-done:
			if !errors.Is(err, faults.ErrPanic) {
				t.Fatalf("c=%d: scan ended with %v, want ErrPanic", c, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("c=%d: scan stalled on poison result", c)
		}
		if err := sc.Close(); err != nil && !errors.Is(err, faults.ErrPanic) {
			t.Fatalf("c=%d: close: %v", c, err)
		}
	}
}

// TestChunkPoolCaps pins the pooled-chunk retention bound: buffers that
// outgrew the caps are dropped to the GC instead of inflating every pooled
// chunk for the life of the process.
func TestChunkPoolCaps(t *testing.T) {
	normal := &rawfile.Chunk{
		Data:  make([]byte, 64<<10),
		Start: make([]int32, 1024),
		End:   make([]int32, 1024),
	}
	if !putChunk(normal) {
		t.Error("normal-sized chunk was not pooled")
	}
	wideData := &rawfile.Chunk{Data: make([]byte, maxPooledChunkBytes+1)}
	if putChunk(wideData) {
		t.Error("chunk with oversized Data was pooled")
	}
	tallRows := &rawfile.Chunk{Start: make([]int32, maxPooledChunkRows+1)}
	if putChunk(tallRows) {
		t.Error("chunk with oversized Start was pooled")
	}
	tallEnds := &rawfile.Chunk{End: make([]int32, maxPooledChunkRows+1)}
	if putChunk(tallEnds) {
		t.Error("chunk with oversized End was pooled")
	}
	// copyChunk must still serve oversized sources (allocating), and the
	// copy must round-trip the data.
	src := &rawfile.Chunk{Base: 7, Rows: 1,
		Data: []byte("hello,world\n"), Start: []int32{0}, End: []int32{11}}
	dst := copyChunk(src)
	if dst.Base != 7 || dst.Rows != 1 || string(dst.Data) != "hello,world\n" {
		t.Fatalf("copyChunk mismatch: %+v", dst)
	}
}

// TestPipelineTinyPool runs a Parallelism-8 scan against a 1-worker shared
// pool: the scan must complete with rows, counters and structures
// byte-identical to the sequential scan (MaxWorkers never affects
// results), and the pool must report the chunk tasks it executed.
func TestPipelineTinyPool(t *testing.T) {
	path, ref := genCSV(t, 2000)
	needed := []int{0, 3}

	seqTbl := newTable(t, path, parOptions(1))
	var seqB metrics.Breakdown
	seqRows := collect(t, seqTbl, ScanSpec{Needed: needed, B: &seqB})
	checkRows(t, seqRows, ref, needed)

	pool := sched.NewPool(1)
	opts := parOptions(8)
	opts.Scheduler = pool
	tbl := newTable(t, path, opts)
	var b metrics.Breakdown
	rows := collect(t, tbl, ScanSpec{Needed: needed, B: &b})
	checkRows(t, rows, ref, needed)

	if got, want := scanCounters(&b), scanCounters(&seqB); got != want {
		t.Errorf("counters with 1-worker pool = %v, sequential = %v", got, want)
	}
	pmSeq, pmPar := seqTbl.Segments()[0].PosMap().Stats(), tbl.Segments()[0].PosMap().Stats()
	if pmSeq.UsedBytes != pmPar.UsedBytes || pmSeq.Grains != pmPar.Grains {
		t.Errorf("posmap differs: seq %+v pool %+v", pmSeq, pmPar)
	}
	if st := pool.Stats(); st.TasksRun == 0 {
		t.Error("shared pool executed no chunk tasks")
	} else if b.SchedTasks == 0 {
		t.Error("SchedTasks counter not charged for pool-run chunks")
	}
	if seqB.SchedTasks != 0 {
		t.Errorf("sequential scan charged %d SchedTasks, want 0", seqB.SchedTasks)
	}
}
