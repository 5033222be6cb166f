package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"nodb"
	"nodb/internal/datagen"
)

// dataset is one generated raw file and the SQL table it is registered as.
type dataset struct {
	name  string // file stem and key in the run header
	table string // SQL table name
	spec  datagen.Spec
	path  string
	bytes int64
}

func (d *dataset) generate() error {
	n, err := d.spec.WriteFile(d.path)
	if err != nil {
		return err
	}
	d.bytes = n
	return nil
}

// ddl renders the CREATE EXTERNAL TABLE statement that registers the file
// for in-situ querying; with is the optional option list.
func (d *dataset) ddl(with string) string {
	cols := strings.ReplaceAll(strings.ReplaceAll(d.spec.SchemaSpec(), ":", " "), ",", ", ")
	stmt := fmt.Sprintf("CREATE EXTERNAL TABLE %s (%s) USING raw LOCATION '%s'", d.table, cols, d.path)
	if with != "" {
		stmt += " WITH (" + with + ")"
	}
	return stmt
}

// Data-set shapes at -scale 1. ints10 is the table the cold and warm
// workloads scan; mixed5 adds float, text and zipf columns; ints10s is the
// smaller table the budgeted and appended workloads own. concurrent_groupby
// runs on thirds of ints10 and mixed5: its round time spreads widely with how
// the clients' queries happen to overlap, so its median needs several times
// the samples the others do, and shorter rounds are how it gets them.
const (
	ints10Rows  = 1_500_000
	mixed5Rows  = 750_000
	ints10sRows = 1_000_000
	ints10cRows = ints10Rows / 3
	mixed5cRows = mixed5Rows / 3
	appendRows  = 2_000 // rows per appended block
)

func (e *env) rows(n int) int {
	r := int(float64(n) * e.cfg.scale)
	if r < 2*1024 { // keep at least two scan chunks at any scale
		r = 2 * 1024
	}
	return r
}

// ints is a table of ten integer attributes registered as t; mixed a
// MixedTable registered as m. Every file has its own seed offset.
func (e *env) ints(name string, rows int, seedOffset int64) *dataset {
	return &dataset{name: name, table: "t", spec: datagen.IntTable(e.rows(rows), 10, e.cfg.seed+seedOffset),
		path: filepath.Join(e.dir, name+".csv")}
}

func (e *env) mixed(name string, rows int) *dataset {
	return &dataset{name: name, table: "m", spec: datagen.MixedTable(e.rows(rows), e.cfg.seed+1),
		path: filepath.Join(e.dir, name+".csv")}
}

func (e *env) ints10() *dataset  { return e.ints("ints10", ints10Rows, 0) }
func (e *env) mixed5() *dataset  { return e.mixed("mixed5", mixed5Rows) }
func (e *env) ints10s() *dataset { return e.ints("ints10s", ints10sRows, 2) }

// query is one statement of a workload together with what the reference
// expects it to return.
type query struct {
	name  string // span label and key of the per-class metrics ("w1", "g2", ...)
	sql   string
	table *dataset // the raw file the statement reads (scan_mb_per_s)
	kinds string   // result column kinds: i int, f float, s text
	// ints or mixed is the statement's naive evaluation, by the kind of
	// table it reads; want is what that evaluation returned.
	ints  func() intsEval
	mixed func() mixedEval
	want  digest
	// cached marks the warm rule: the statement must be answered without
	// touching the raw file (BytesRead = 0 and FieldsTokenized = 0).
	cached bool
}

// queryTotals sums what a set of executed queries did, from the public
// QueryStats of each.
type queryTotals struct {
	queries      int64
	rowsReturned int64
	cells        int64 // rows returned × result columns
	rawBytes     int64 // bytes of the raw files the queries referenced
	stats        nodb.QueryStats
}

func (t *queryTotals) add(o *queryTotals) {
	t.queries += o.queries
	t.rowsReturned += o.rowsReturned
	t.cells += o.cells
	t.rawBytes += o.rawBytes
	addStats(&t.stats, o.stats)
}

func addStats(dst *nodb.QueryStats, s nodb.QueryStats) {
	dst.Total += s.Total
	dst.IO += s.IO
	dst.Tokenizing += s.Tokenizing
	dst.Parsing += s.Parsing
	dst.Convert += s.Convert
	dst.NoDB += s.NoDB
	dst.Processing += s.Processing
	dst.BytesRead += s.BytesRead
	dst.RowsScanned += s.RowsScanned
	dst.FieldsTokenized += s.FieldsTokenized
	dst.FieldsConverted += s.FieldsConverted
	dst.CacheHitFields += s.CacheHitFields
	dst.MapJumpFields += s.MapJumpFields
	dst.MapNearFields += s.MapNearFields
	dst.SchedTasks += s.SchedTasks
	dst.PlanCacheHits += s.PlanCacheHits
	dst.IORetries += s.IORetries
}

// client is one closed-loop caller: it issues its next query only when the
// previous result is fully drained and closed. Not safe for concurrent use;
// concurrent workloads give every goroutine its own client.
type client struct {
	id int
	e  *env

	samples   []time.Duration // one per timed round
	attempted int64
	failed    int64
	firstFail string
	totals    queryTotals

	ints   [maxResultCols]int64 // Scan destinations, reused across rows
	floats [maxResultCols]float64
	texts  [maxResultCols]string
	dest   []any
}

const maxResultCols = 4

func newClient(e *env, id int) *client {
	return &client{id: id, e: e}
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstFail == "" {
		c.firstFail = fmt.Sprintf(format, args...)
	}
}

// op times a non-query step of a round (open, register, append_write, ...)
// as a span and counts it as one attempted operation.
func (c *client) op(name string, parent, round int, fn func() error) bool {
	id := c.e.tr.begin(name, parent, round, c.id)
	err := fn()
	c.e.tr.end(id)
	c.attempted++
	if err != nil {
		c.fail("%s: %v", name, err)
		return false
	}
	return true
}

// run executes one query through Prepare → QueryContext → Rows.Next → Close,
// drains every row into a digest, and compares it with the reference.
func (c *client) run(db *nodb.DB, q *query, parent, round int) {
	c.attempted++
	tr := c.e.tr
	qs := tr.begin("query", parent, round, c.id)
	defer tr.end(qs)

	id := tr.begin("prepare", qs, round, c.id)
	stmt, err := db.Prepare(q.sql)
	tr.end(id)
	if err != nil {
		c.fail("%s: prepare: %v", q.name, err)
		return
	}
	defer stmt.Close()
	id = tr.begin("execute", qs, round, c.id)
	rows, err := stmt.QueryContext(context.Background())
	tr.end(id)
	if err != nil {
		c.fail("%s: execute: %v", q.name, err)
		return
	}

	c.bind(q.kinds)
	var got digest
	id = tr.begin("first_row", qs, round, c.id)
	more := rows.Next()
	tr.end(id)
	id = tr.begin("drain", qs, round, c.id)
	for more {
		if err = rows.Scan(c.dest...); err != nil {
			break
		}
		got.rows++
		for col, k := range []byte(q.kinds) {
			switch k {
			case 'i':
				got.addInt(col, c.ints[col])
			case 'f':
				got.addFloat(col, c.floats[col])
			default:
				got.addText(col, c.texts[col])
			}
		}
		more = rows.Next()
	}
	tr.end(id)
	if err == nil {
		err = rows.Err()
	}
	id = tr.begin("close", qs, round, c.id)
	cerr := rows.Close()
	tr.end(id)
	if err == nil {
		err = cerr
	}
	st := rows.Stats()

	one := queryTotals{queries: 1, rowsReturned: got.rows, cells: got.rows * int64(len(q.kinds)), rawBytes: q.table.bytes, stats: st}
	c.totals.add(&one)
	if tr != nil {
		tr.describe(qs, q.name, statCounts(st, got.rows))
		c.e.obs.pool(db.SchedulerStats())
	}

	switch {
	case err != nil:
		c.fail("%s: %v", q.name, err)
	case !got.equal(q.want):
		c.fail("%s: got %v, reference says %v", q.name, got, q.want)
	case q.cached && round >= 0 && (st.BytesRead != 0 || st.FieldsTokenized != 0):
		c.fail("%s: warm query touched the raw file (BytesRead=%d FieldsTokenized=%d)", q.name, st.BytesRead, st.FieldsTokenized)
	}
}

// bind points the Scan destinations at typed slots matching the result
// column kinds.
func (c *client) bind(kinds string) {
	c.dest = c.dest[:0]
	for i, k := range []byte(kinds) {
		switch k {
		case 'i':
			c.dest = append(c.dest, &c.ints[i])
		case 'f':
			c.dest = append(c.dest, &c.floats[i])
		default:
			c.dest = append(c.dest, &c.texts[i])
		}
	}
}

// statCounts is what a query span carries: the public counters of the
// statement and its Fig. 3 time categories in nanoseconds.
func statCounts(s nodb.QueryStats, rows int64) map[string]int64 {
	return map[string]int64{
		"rows_returned": rows, "rows_scanned": s.RowsScanned, "bytes_read": s.BytesRead,
		"fields_tokenized": s.FieldsTokenized, "fields_converted": s.FieldsConverted,
		"cache_hit_fields": s.CacheHitFields, "map_jump_fields": s.MapJumpFields, "map_near_fields": s.MapNearFields,
		"sched_tasks": s.SchedTasks, "plan_cache_hits": s.PlanCacheHits, "io_retries": s.IORetries,
		"io_ns": int64(s.IO), "tokenizing_ns": int64(s.Tokenizing), "parsing_ns": int64(s.Parsing),
		"convert_ns": int64(s.Convert), "upkeep_ns": int64(s.NoDB), "processing_ns": int64(s.Processing),
	}
}

// structStats sums the adaptive structures of a set of raw tables, from the
// public monitoring panels.
type structStats struct {
	usedBytes   int64 // positional map + cache
	posEvict    int64
	cacheEvict  int64
	cacheReject int64
}

func (s structStats) minus(o structStats) structStats {
	return structStats{s.usedBytes, s.posEvict - o.posEvict, s.cacheEvict - o.cacheEvict, s.cacheReject - o.cacheReject}
}

func panelStats(db *nodb.DB, tables []*dataset) (structStats, error) {
	var s structStats
	for _, d := range tables {
		panels, err := db.Panels(d.table)
		if err != nil {
			return s, err
		}
		for _, p := range panels {
			s.usedBytes += p.PosMap.UsedBytes + p.Cache.UsedBytes
			s.posEvict += p.PosMap.Evictions
			s.cacheEvict += p.Cache.Evictions
			s.cacheReject += p.Cache.Rejected
		}
	}
	return s, nil
}

// observer holds what only the traced run records between rounds: the
// per-round change of the structures' eviction counters and the scheduler
// pool's high-water marks. Safe for concurrent clients.
type observer struct {
	mu         sync.Mutex
	rounds     []structStats // per timed round: counter deltas
	maxRunning int
	maxWorkers int
}

func (o *observer) round(delta structStats) {
	o.mu.Lock()
	o.rounds = append(o.rounds, delta)
	o.mu.Unlock()
}

func (o *observer) pool(s nodb.SchedulerStats) {
	o.mu.Lock()
	if s.Running > o.maxRunning {
		o.maxRunning = s.Running
	}
	o.maxWorkers = s.MaxWorkers
	o.mu.Unlock()
}

// appendFile appends block to path from outside the database: O_APPEND,
// write, close, no fsync.
func appendFile(path string, block []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(block); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
