// Package rawfile is the raw-data access substrate: a block reader with I/O
// accounting, a chunked line reader that hands out batches of complete CSV
// rows, and the selective tokenizer that locates field delimiters only as
// far into each row as a query needs (the paper's "selective tokenizing").
package rawfile

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"nodb/internal/faults"
	"nodb/internal/metrics"
)

// DefaultBlockSize is the read granularity when none is configured.
const DefaultBlockSize = 256 * 1024

// Transient read errors (EINTR/EAGAIN and injected faults.ErrTransient
// wraps) are retried with exponential backoff before being reported as a
// permanent faults.ErrIO. Variables so tests can shrink the budget.
var (
	RetryAttempts = 3
	RetryBackoff  = 100 * time.Microsecond
)

// File is the underlying handle a Reader preads from. Production readers
// wrap an *os.File; the fault-injection harness substitutes its own
// implementation through SetOpenHook.
type File interface {
	io.ReaderAt
	io.Closer
	Stat() (os.FileInfo, error)
}

// openHook, when set, wraps every file Open returns — the seam the
// fault-injection harness (internal/faultfs) uses to inject read errors,
// truncation and panics underneath the whole scan stack. Test-only.
var openHook atomic.Pointer[func(path string, f File) File]

// SetOpenHook installs (or, with nil, removes) a hook wrapping every file
// opened by Open. Intended for fault-injection tests; not for production
// use. Safe for concurrent use with Open.
func SetOpenHook(h func(path string, f File) File) {
	if h == nil {
		openHook.Store(nil)
		return
	}
	openHook.Store(&h)
}

// Reader reads a file in blocks and charges time and bytes to a metrics
// breakdown. ReadAt is a stateless pread, so concurrent readers may share
// one Reader's descriptor through View; accounting, however, is not
// synchronized, so each concurrent user needs its own Reader or View with a
// private breakdown.
type Reader struct {
	f      File
	path   string
	size   int64
	off    int64 // physical offset of logical offset 0 (byte-range restriction)
	ranged bool  // reads are clamped to [off, off+size) of the file
	b      *metrics.Breakdown
	shared bool // view over another Reader's descriptor; Close is a no-op
}

// Open opens path for raw access, charging I/O to b (which may be nil).
func Open(path string, b *metrics.Breakdown) (*Reader, error) {
	osf, err := os.Open(path)
	if err != nil {
		return nil, faults.IO(path, -1, err)
	}
	var f File = osf
	if hp := openHook.Load(); hp != nil {
		f = (*hp)(path, osf)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, faults.IO(path, -1, err)
	}
	return &Reader{f: f, path: path, size: st.Size(), b: b}, nil
}

// Size returns the file size at open time (of the restricted range, for a
// ranged reader).
func (r *Reader) Size() int64 { return r.size }

// Restrict narrows the reader, in place, to the byte range [lo, hi) of the
// region it currently covers: logical offset 0 becomes lo, Size() reports
// hi-lo, and reads at or past hi return io.EOF exactly like a real end of
// file. hi <= 0 (or past the end) means "through the end of the region".
// Fingerprint is unaffected — it identifies the whole file's bytes.
//
// This is how byte-range partitions make an interior slice of one large
// file behave like a standalone file: with lo and hi on row boundaries,
// every layer above (chunk reading, tokenizing, positional map, cache)
// works in partition-relative coordinates unchanged.
func (r *Reader) Restrict(lo, hi int64) {
	if hi <= 0 || hi > r.size {
		hi = r.size
	}
	if lo < 0 {
		lo = 0
	}
	if lo > hi {
		lo = hi
	}
	r.off += lo
	r.size = hi - lo
	r.ranged = true
}

// Path returns the path the reader was opened with.
func (r *Reader) Path() string { return r.path }

// Fingerprint identifies one version of a file's bytes: size plus
// modification time in nanoseconds. Scans compare fingerprints at chunk
// boundaries and on warm-structure reuse to detect files changing under
// foot.
type Fingerprint struct {
	Size    int64
	ModTime int64 // unix nanoseconds
}

// Fingerprint stats the open descriptor (not the path, so a rename swap is
// seen as the old file) and returns its current fingerprint.
func (r *Reader) Fingerprint() (Fingerprint, error) {
	st, err := r.f.Stat()
	if err != nil {
		return Fingerprint{}, faults.IO(r.path, -1, err)
	}
	return Fingerprint{Size: st.Size(), ModTime: st.ModTime().UnixNano()}, nil
}

// View returns a reader sharing r's descriptor but charging I/O to its own
// breakdown, so parallel scan workers can pread concurrently without racing
// on accounting. Closing a view is a no-op; the owner's Close releases the
// descriptor.
func (r *Reader) View(b *metrics.Breakdown) *Reader {
	return &Reader{f: r.f, path: r.path, size: r.size, off: r.off, ranged: r.ranged, b: b, shared: true}
}

// SetBreakdown redirects accounting to b.
func (r *Reader) SetBreakdown(b *metrics.Breakdown) { r.b = b }

// ReadAt fills p from the given offset, charging I/O time and bytes.
// Like io.ReaderAt it returns io.EOF with a short count at end of file.
// Transient failures (EINTR and injected transients) are retried with
// backoff, resuming after any bytes already read; errors that survive the
// retry budget — and permanent failures — come back wrapped as
// faults.ErrIO.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	atEnd := false
	if r.ranged {
		// The restriction boundary is a hard end of file: clamp the read
		// and synthesize io.EOF so callers never see bytes past the range
		// (for interior partitions, the next partition's rows).
		if off >= r.size {
			if len(p) == 0 {
				return 0, nil
			}
			return 0, io.EOF
		}
		if off+int64(len(p)) > r.size {
			p = p[:r.size-off]
			atEnd = true
		}
	}
	t0 := time.Now()
	n, err := r.f.ReadAt(p, r.off+off)
	for attempt := 0; err != nil && err != io.EOF && faults.IsTransient(err) && attempt < RetryAttempts; attempt++ {
		if r.b != nil {
			r.b.IORetries++
		}
		time.Sleep(RetryBackoff << attempt)
		var m int
		m, err = r.f.ReadAt(p[n:], r.off+off+int64(n))
		n += m
	}
	if atEnd && err == nil && n == len(p) {
		err = io.EOF
	}
	if r.b != nil {
		r.b.Add(metrics.IO, time.Since(t0))
		r.b.BytesRead += int64(n)
	}
	if err != nil && err != io.EOF && !errors.Is(err, faults.ErrIO) {
		err = faults.IO(r.path, off, err)
	}
	return n, err
}

// Close releases the file. Views created with View do not own the
// descriptor and close to a no-op.
func (r *Reader) Close() error {
	if r.shared {
		return nil
	}
	return r.f.Close()
}

// ChunkReader reads consecutive chunks of up to maxRows complete lines into
// a reused buffer. The caller receives the raw bytes plus the boundaries of
// each line, so tokenization and field extraction can work over one flat
// buffer per chunk.
//
// Reading is sequential; Seek repositions it (used when the scan can skip a
// fully-cached region and the next chunk's start offset is known).
type ChunkReader struct {
	r         *Reader
	blockSize int

	// buf[head:nbuf] are the file bytes read but not yet consumed. Consuming
	// a chunk only advances head; the bytes move to the front of buf when a
	// fill needs the room, not once per chunk.
	buf     []byte
	head    int
	base    int64 // file offset of buf[head]
	nbuf    int   // end of the valid bytes in buf
	pending int   // bytes handed out by the previous NextChunk, not yet consumed
	eof     bool
	fault   error
}

// NewChunkReader returns a chunk reader positioned at offset 0.
func NewChunkReader(r *Reader, blockSize int) *ChunkReader {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	c := &ChunkReader{r: r, blockSize: blockSize}
	c.eof = r.Size() == 0
	return c
}

// Offset returns the file offset of the first row of the next chunk.
func (c *ChunkReader) Offset() int64 { return c.base + int64(c.pending) }

// SeekTo repositions the reader at a file offset, discarding buffered data.
// off must be the start of a line for subsequent chunks to be well-formed.
func (c *ChunkReader) SeekTo(off int64) {
	c.base = off
	c.head, c.nbuf = 0, 0
	c.pending = 0
	c.eof = off >= c.r.Size()
	c.fault = nil
}

// Chunk is one batch of complete rows sharing a flat byte buffer, valid only
// until the next NextChunk or Seek call.
type Chunk struct {
	Base  int64   // file offset of Data[0] (start of first row)
	Data  []byte  // raw bytes covering all rows, including line terminators
	Rows  int     // number of complete rows
	Start []int32 // per row: offset of first byte within Data
	End   []int32 // per row: offset one past the last content byte (excl. \r\n)
}

// RowBytes returns the content bytes of row i (without the line terminator).
func (ch *Chunk) RowBytes(i int) []byte { return ch.Data[ch.Start[i]:ch.End[i]] }

// NextChunk reads up to maxRows complete lines. It returns io.EOF (with a
// zero-row chunk) when the file is exhausted. A final line without a
// trailing newline is returned as a complete row. Empty lines are skipped.
func (c *ChunkReader) NextChunk(maxRows int, ch *Chunk) error {
	if c.fault != nil {
		return c.fault
	}
	c.head += c.pending
	c.base += int64(c.pending)
	c.pending = 0
	ch.Base = c.base
	ch.Rows = 0
	ch.Start = ch.Start[:0]
	ch.End = ch.End[:0]

	// Offsets are relative to head: a fill may move the unconsumed bytes to
	// the front of buf, but never reorders them.
	pos := 0 // scan position: bytes before it hold no newline
	lineStart := 0
	for {
		win := c.buf[c.head:c.nbuf]
		var full bool
		lineStart, full = splitLines(ch, win, lineStart, pos, maxRows)
		if full {
			break
		}
		if c.eof {
			if len(win) > lineStart { // final line without newline
				appendChunkRow(ch, win, lineStart, len(win))
				lineStart = len(win)
			}
			break
		}
		pos = len(win)
		if err := c.fill(); err != nil {
			c.fault = err
			return err
		}
	}

	ch.Data = c.buf[c.head : c.head+lineStart]
	c.pending = lineStart
	if ch.Rows == 0 {
		return io.EOF
	}
	return nil
}

// ReadChunkAt reads the byte range [base, limit) of r in one pread and
// splits it into complete rows, filling ch exactly as ChunkReader.NextChunk
// would. base must be the start of a row; limit must be a row boundary or
// the file size (a final line without a trailing newline counts as a
// complete row, and empty lines are skipped). At most maxRows rows are kept.
// buf is the scratch buffer to (re)use for the chunk bytes; the grown buffer
// is returned so callers can recycle it across chunks.
//
// This is the parallel scan's chunk-offset handoff: once a chunk's base is
// known, any worker can materialize it independently of every other chunk.
func ReadChunkAt(r *Reader, base, limit int64, maxRows int, buf []byte, ch *Chunk) ([]byte, error) {
	if limit > r.Size() {
		limit = r.Size()
	}
	n := int(limit - base)
	if n < 0 {
		n = 0
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if n > 0 {
		got, err := r.ReadAt(buf, base)
		if err == io.EOF && got == n {
			err = nil
		}
		if err == io.EOF {
			// The range was computed from the scan's view of the file; an
			// early EOF means the file shrank underneath it.
			return buf, faults.Truncated(r.Path(),
				fmt.Sprintf("chunk at %d wants %d bytes, file ends after %d", base, n, got))
		}
		if err != nil {
			// Already faults.IO-typed (and retried) by Reader.ReadAt; an
			// extra wrap here would only bury the offset it recorded.
			return buf, err
		}
	}

	ch.Base = base
	ch.Rows = 0
	ch.Start = ch.Start[:0]
	ch.End = ch.End[:0]

	lineStart, full := splitLines(ch, buf, 0, 0, maxRows)
	if !full && limit >= r.Size() && len(buf) > lineStart { // final line without newline
		appendChunkRow(ch, buf, lineStart, len(buf))
		lineStart = len(buf)
	}
	ch.Data = buf[:lineStart]
	if ch.Rows == 0 {
		return buf, io.EOF
	}
	return buf, nil
}

// splitLineBatch bounds how many newline offsets one splitLines scan
// collects at a time.
const splitLineBatch = 1024

// splitLines records in ch the lines of buf that start at lineStart and end
// at a newline at or after pos, until ch holds maxRows rows. It returns the
// offset just past the last newline consumed, and full = true when ch
// reached maxRows, false when buf ran out of newlines first. The newline
// offsets are collected by one indexAll call per batch into ch.End's spare
// capacity, where the rows recorded from them overwrite each offset only
// after reading it (a newline yields at most one row).
func splitLines(ch *Chunk, buf []byte, lineStart, pos, maxRows int) (int, bool) {
	for ch.Rows < maxRows {
		want := min(maxRows-ch.Rows, splitLineBatch)
		ch.End = slices.Grow(ch.End, want)
		nls := ch.End[ch.Rows : ch.Rows+want]
		k := indexAll(buf, '\n', max(pos, lineStart), nls)
		for i := 0; i < k; i++ {
			nl := int(nls[i])
			appendChunkRow(ch, buf, lineStart, nl)
			lineStart = nl + 1
		}
		if k < want {
			return lineStart, false
		}
	}
	return lineStart, true
}

// appendChunkRow records one row's boundaries, trimming \r and skipping
// empty lines. Both the sequential ChunkReader and ReadChunkAt go through
// here, so the two paths accept exactly the same rows.
func appendChunkRow(ch *Chunk, buf []byte, start, nl int) {
	end := nl
	if end > start && buf[end-1] == '\r' {
		end--
	}
	if end == start {
		return
	}
	ch.Start = append(ch.Start, int32(start))
	ch.End = append(ch.End, int32(end))
	ch.Rows++
}

// fill reads one more block into the buffer.
func (c *ChunkReader) fill() error {
	if c.eof {
		return nil
	}
	if len(c.buf)-c.nbuf < c.blockSize {
		live := c.nbuf - c.head
		if live+c.blockSize <= len(c.buf) {
			copy(c.buf, c.buf[c.head:c.nbuf])
		} else {
			want := live + c.blockSize
			if want < 2*len(c.buf) {
				want = 2 * len(c.buf)
			}
			nb := make([]byte, want)
			copy(nb, c.buf[c.head:c.nbuf])
			c.buf = nb
		}
		c.head, c.nbuf = 0, live
	}
	n, err := c.r.ReadAt(c.buf[c.nbuf:c.nbuf+c.blockSize], c.base+int64(c.nbuf-c.head))
	c.nbuf += n
	switch {
	case err == io.EOF:
		c.eof = true
		if got := c.base + int64(c.nbuf-c.head); got < c.r.Size() {
			// EOF before the size the file had at open: it shrank mid-scan.
			return faults.Truncated(c.r.Path(),
				fmt.Sprintf("read at %d hit end of file before expected size %d", got, c.r.Size()))
		}
		return nil
	case err != nil:
		// Already faults.IO-typed (and retried) by Reader.ReadAt.
		return err
	}
	if c.base+int64(c.nbuf-c.head) >= c.r.Size() {
		c.eof = true
	}
	return nil
}
