package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by the
// benchmark around its calls into the public nodb API (the engine itself is
// not instrumented): round ⊃ open / register / append_write / query, and
// query ⊃ prepare, execute, first_row, drain, close. Parent is the index of
// the enclosing span in the trace (-1 for none); spans of one round share
// Round and Client. A layer's self time is its span minus the part its
// children cover.
type span struct {
	Name    string           `json:"name"`
	Label   string           `json:"label,omitempty"` // query spans: which statement
	StartNS int64            `json:"start_ns"`        // since the trace began
	EndNS   int64            `json:"end_ns"`
	Parent  int              `json:"parent"`
	Round   int              `json:"round"` // -1 during set-up
	Client  int              `json:"client"`
	Counts  map[string]int64 `json:"counts,omitempty"` // query spans: QueryStats counters and Fig. 3 times (ns)
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, round, client int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, Parent: parent, Round: round, Client: client})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// describe attaches the statement's label and counters to a query span.
func (t *tracer) describe(id int, label string, counts map[string]int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Label, t.spans[id].Counts = label, counts
	t.mu.Unlock()
}

// durations returns the length of every timed-round span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Round >= 0 {
			out = append(out, float64(s.EndNS-s.StartNS))
		}
	}
	return out
}

// openRegisterMS is the median, over rounds (or set-ups, for workloads that
// open once), of the time spent in open and register spans.
func (t *tracer) openRegisterMS() float64 {
	type key struct{ round, client int }
	per := map[key]float64{}
	for _, s := range t.spans {
		if s.Name == "open" || s.Name == "register" {
			per[key{s.Round, s.Client}] += float64(s.EndNS - s.StartNS)
		}
	}
	var xs []float64
	for _, v := range per {
		xs = append(xs, v)
	}
	return median(xs) / 1e6
}

// traceFile is trace.json: the spans of each workload's traced phase.
type traceFile map[string]struct {
	Spans []span `json:"spans"`
}

// write stores the trace as one JSON document keyed by the workload's name.
func (t *tracer) write(path, workload string) error {
	return writeTraceFile(path, traceFile{workload: {Spans: t.spans}})
}

func writeTraceFile(path string, tf traceFile) error {
	buf, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
