// Package metrics implements the execution-time breakdown accounting that
// reproduces the categories of the paper's Figure 3 ("Query Execution
// Breakdown"): I/O, Tokenizing, Parsing, Convert, NoDB overhead (auxiliary
// structure maintenance), Processing (the query plan above the scan), and
// Load (the one-time initialization phase of conventional, load-first
// engines).
//
// Timing is charged at batch granularity (per chunk of rows), not per field,
// so the accounting itself stays out of the measured hot loops.
package metrics

import (
	"fmt"
	"strings"
	"time"
)

// Category is one slice of the execution-time breakdown.
type Category uint8

// Breakdown categories (Figure 3 of the paper, plus Load for the
// conventional engines' initialization phase).
const (
	IO         Category = iota // reading raw-file or heap-page bytes
	Tokenizing                 // locating field delimiters in raw lines
	Parsing                    // slicing fields out of lines, per-row bookkeeping
	Convert                    // text -> binary conversion
	NoDB                       // positional map / cache / statistics maintenance
	Processing                 // operators above the scan: filter, agg, join, sort
	Load                       // load-first initialization: bulk load + index build
	NumCategories
)

// String names the category as the paper's figure labels it.
func (c Category) String() string {
	switch c {
	case IO:
		return "I/O"
	case Tokenizing:
		return "Tokenizing"
	case Parsing:
		return "Parsing"
	case Convert:
		return "Convert"
	case NoDB:
		return "NoDB"
	case Processing:
		return "Processing"
	case Load:
		return "Load"
	default:
		return fmt.Sprintf("Category(%d)", uint8(c))
	}
}

// Categories lists all categories in display order.
func Categories() []Category {
	return []Category{Load, IO, Tokenizing, Parsing, Convert, NoDB, Processing}
}

// Breakdown accumulates per-category time and scan counters for one query
// (or one phase). The zero value is ready to use.
type Breakdown struct {
	Times [NumCategories]time.Duration

	// Scan-level counters.
	BytesRead       int64 // raw or heap bytes read from storage
	BytesSkipped    int64 // raw bytes skipped thanks to cache/posmap coverage
	RowsScanned     int64
	FieldsTokenized int64 // delimiter searches performed
	FieldsConverted int64 // text->binary conversions performed
	CacheHitFields  int64 // field values served from the binary cache
	MapJumpFields   int64 // delimiter positions read from the positional map, one per needed delimiter per row (row start excluded)
	MapNearFields   int64 // fields located via a nearby map entry (partial tokenize)
	PartialGroups   int64 // per-chunk partial group states folded in scan workers
	VecRows         int64 // (row, expression) evaluations served column-at-a-time

	// Robustness counters.
	MalformedFields int64 // malformed-input events: bad conversions + ragged rows
	RowsDropped     int64 // rows excluded by the on_error=skip policy
	IORetries       int64 // transient read errors retried by rawfile

	// Scheduler counters. SchedTasks counts committed chunks that ran as
	// tasks on the shared DB-level worker pool; it is charged on the
	// per-chunk breakdown and folded in at commit, so it is deterministic
	// for a given table layout at any MaxWorkers setting (0 at Parallelism 1,
	// whose inline executor never enters the pool).
	SchedTasks int64
}

// Add charges d to category c.
func (b *Breakdown) Add(c Category, d time.Duration) { b.Times[c] += d }

// Merge adds all of o into b.
func (b *Breakdown) Merge(o *Breakdown) {
	for i := range b.Times {
		b.Times[i] += o.Times[i]
	}
	b.BytesRead += o.BytesRead
	b.BytesSkipped += o.BytesSkipped
	b.RowsScanned += o.RowsScanned
	b.FieldsTokenized += o.FieldsTokenized
	b.FieldsConverted += o.FieldsConverted
	b.CacheHitFields += o.CacheHitFields
	b.MapJumpFields += o.MapJumpFields
	b.MapNearFields += o.MapNearFields
	b.PartialGroups += o.PartialGroups
	b.VecRows += o.VecRows
	b.MalformedFields += o.MalformedFields
	b.RowsDropped += o.RowsDropped
	b.IORetries += o.IORetries
	b.SchedTasks += o.SchedTasks
}

// Total returns the sum of all category times.
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b.Times {
		t += d
	}
	return t
}

// ScanTotal returns time spent inside the scan (everything but Processing
// and Load).
func (b *Breakdown) ScanTotal() time.Duration {
	return b.Total() - b.Times[Processing] - b.Times[Load]
}

// String renders an aligned multi-line breakdown, one category per line,
// with percentages of the total.
func (b *Breakdown) String() string {
	total := b.Total()
	var sb strings.Builder
	for _, c := range Categories() {
		d := b.Times[c]
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d) / float64(total)
		}
		fmt.Fprintf(&sb, "%-11s %12s %5.1f%%\n", c.String(), d.Round(time.Microsecond), pct)
	}
	fmt.Fprintf(&sb, "%-11s %12s\n", "total", total.Round(time.Microsecond))
	return sb.String()
}

// Stopwatch measures one phase at a time. Use Start then Stop(category);
// Stop charges the elapsed time to the breakdown and restarts the watch, so
// consecutive phases can be timed back to back.
type Stopwatch struct {
	b  *Breakdown
	t0 time.Time
}

// NewStopwatch returns a stopwatch charging into b, already started.
func NewStopwatch(b *Breakdown) *Stopwatch {
	return &Stopwatch{b: b, t0: time.Now()}
}

// Restart resets the start time without charging anything.
func (s *Stopwatch) Restart() { s.t0 = time.Now() }

// Stop charges the time since the last Start/Stop to c and restarts.
func (s *Stopwatch) Stop(c Category) {
	now := time.Now()
	s.b.Add(c, now.Sub(s.t0))
	s.t0 = now
}
