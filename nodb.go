// Package nodb is a from-scratch Go implementation of the NoDB design
// (Alagiannis et al., "NoDB in Action: Adaptive Query Processing on Raw
// Data", VLDB 2012): a query engine that executes SQL directly over raw CSV
// files with zero loading, getting faster as a side effect of queries via
// an adaptive positional map, an adaptive binary cache and on-the-fly
// statistics.
//
// The catalog is DDL-first: every registration/management operation is
// reachable as SQL (Exec with CREATE EXTERNAL TABLE / DROP TABLE / ALTER
// TABLE, plus SHOW TABLES and DESCRIBE through Query), as a programmatic
// spec (CreateTable with a TableSpec), and through the database/sql driver.
// A LOCATION glob registers the matched files as one sharded table — each
// shard with its own reader, positional map, cache and statistics — whose
// query results are byte-identical to the files' concatenation.
//
// Three access modes are provided so the paper's comparisons can be
// reproduced in-process (USING raw|baseline|load in DDL):
//
//   - raw (RegisterRaw): PostgresRaw-style in-situ querying (adaptive
//     structures on, zero data-to-query time).
//   - baseline (RegisterBaseline): "external files" — every query
//     re-tokenizes and re-parses the whole file (the paper's Baseline).
//   - load (Load): a conventional load-first engine (binary heap storage,
//     optional statistics and B+tree indexes) standing in for PostgreSQL,
//     MySQL and the commercial DBMS X of the paper's friendly race.
//
// Minimal use:
//
//	db, _ := nodb.Open(nodb.Config{})
//	defer db.Close()
//	db.Exec(ctx, "CREATE EXTERNAL TABLE events (id int, ts date, kind text, val float) USING raw LOCATION 'events-*.csv'")
//	res, _ := db.Query("SELECT kind, COUNT(*) FROM events GROUP BY kind")
//	fmt.Print(res)
package nodb

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nodb/internal/core"
	"nodb/internal/planner"
	"nodb/internal/sched"
	"nodb/internal/schema"
	"nodb/internal/storage"
)

// Config configures a DB.
type Config struct {
	// DataDir is where load-first heap files are written. Empty means a
	// temporary directory that is removed on Close.
	DataDir string
	// Parallelism is the default number of chunk workers an in-situ scan
	// is sized for, on tables registered on this DB: a scan keeps at most
	// 4 × Parallelism chunks in flight; <= 0 uses GOMAXPROCS. 1 runs the
	// pipeline inline on the caller's goroutine. Results, row
	// order and adaptive-structure contents are identical at any setting;
	// per-table RawOptions.Parallelism overrides this default. GROUP BY and
	// aggregate queries over a single raw table additionally push partial
	// aggregation into the same workers (each chunk folds into private group
	// states, merged deterministically in chunk order), so aggregation
	// throughput scales with this knob too.
	Parallelism int
	// MaxWorkers bounds the DB-level chunk scheduler: one shared worker pool
	// multiplexes the chunk work of every concurrent scan on this DB, with
	// round-robin fairness across scan queues, so N concurrent queries share
	// MaxWorkers goroutines instead of spawning N*Parallelism. <= 0 uses
	// GOMAXPROCS (a process-wide pool shared with other DBs opened with the
	// default). Results are byte-identical at any setting; Parallelism still
	// sizes how many chunks a single scan keeps in flight.
	MaxWorkers int
}

// DB is a catalog of registered tables plus the query entry point. Safe for
// concurrent use.
type DB struct {
	mu          sync.RWMutex
	cat         *schema.Catalog
	dataDir     string
	ownsDir     bool
	parallelism int              // default scan parallelism for raw tables
	noVec       bool             // hide vector kernels; set only by tests, for a row-evaluator reference
	sched       *sched.Pool      // DB-level chunk scheduler for raw scans
	loaded      []*storage.Table // for Close

	// catGen counts catalog mutations (register/drop/close). Prepared plan
	// skeletons carry the generation they were resolved under and are
	// discarded when it moves on.
	catGen atomic.Int64

	planMu     sync.Mutex
	planCache  map[string]*cachedPrep // query text -> plan skeleton
	planHits   atomic.Int64
	planMisses atomic.Int64

	// Table-lifetime pinning: every in-flight query/Rows holds a refcount on
	// each table it references, keyed by the catalog entry's storage handle.
	// Close defers releasing a pinned loaded table's heap file (and the
	// owned temp directory) until the last pin drops, so a concurrent
	// Drop/Close can no longer invalidate a table mid-scan — a window that
	// streaming Rows keep open far longer than the old materializing Query.
	pinMu   sync.Mutex
	pins    map[any]int          // storage handle -> in-flight refcount
	doomed  map[any]func() error // storage handle -> deferred release
	closed  bool
	dirWait bool // ownsDir removal deferred until the last pin releases
}

// cachedPrep is one plan-cache entry: the skeleton plus the catalog
// generation it was resolved under.
type cachedPrep struct {
	prep *planner.Prepared
	gen  int64
}

// planCacheMax bounds the prepared-plan cache; on overflow the cache is
// dropped wholesale (simplicity over LRU — re-preparing is cheap).
const planCacheMax = 1024

// Open creates a database handle.
func Open(cfg Config) (*DB, error) {
	dir := cfg.DataDir
	owns := false
	if dir == "" {
		d, err := os.MkdirTemp("", "nodb-*")
		if err != nil {
			return nil, fmt.Errorf("nodb: %w", err)
		}
		dir = d
		owns = true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("nodb: %w", err)
	}
	pool := sched.Default()
	if cfg.MaxWorkers > 0 {
		pool = sched.NewPool(cfg.MaxWorkers)
	}
	return &DB{
		cat: schema.NewCatalog(), dataDir: dir, ownsDir: owns,
		parallelism: cfg.Parallelism,
		sched:       pool,
		planCache:   make(map[string]*cachedPrep),
		pins:        make(map[any]int),
		doomed:      make(map[any]func() error),
	}, nil
}

// Close releases loaded tables and the temporary data directory. Tables
// pinned by in-flight queries/Rows are released when their last pin drops
// (Rows.Close); new queries fail immediately.
func (db *DB) Close() error {
	db.mu.Lock()
	db.catGen.Add(1)
	db.pinMu.Lock()
	if db.closed {
		db.pinMu.Unlock()
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	// Partition under the locks, do the file I/O after releasing them:
	// closing heaps and removing the data dir are unbounded syscalls, and
	// once closed is set no new pins can appear, so the unpinned tables and
	// the (pin-free) data dir are exclusively ours.
	var toClose []*storage.Table
	for _, t := range db.loaded {
		t := t
		if db.pins[t] > 0 {
			db.doomed[t] = t.Close
			continue
		}
		toClose = append(toClose, t)
	}
	db.loaded = nil
	removeDir := false
	if db.ownsDir {
		if len(db.pins) > 0 {
			db.dirWait = true
		} else {
			removeDir = true
		}
	}
	db.pinMu.Unlock()
	db.mu.Unlock()

	var first error
	for _, t := range toClose {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	if removeDir {
		if err := os.RemoveAll(db.dataDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pin takes a lifetime reference on each table entry for the duration of a
// query; the entries stay usable even if dropped from the catalog or the DB
// is closed while the query streams.
func (db *DB) pin(entries []*schema.Table) error {
	db.pinMu.Lock()
	defer db.pinMu.Unlock()
	if db.closed {
		return fmt.Errorf("nodb: database is closed")
	}
	for _, e := range entries {
		db.pins[e.Handle]++
	}
	return nil
}

// unpin releases pins taken by pin, running any deferred releases (heap
// close, temp-dir removal) once the affected handle (or the whole DB) has no
// in-flight users left.
func (db *DB) unpin(entries []*schema.Table) {
	db.pinMu.Lock()
	// Collect the deferred releases under the lock, run them after: they
	// close heap files and delete directories, and each doomed entry is
	// removed from the map before the lock drops, so no other unpin can
	// run the same release twice.
	var release []func() error
	for _, e := range entries {
		h := e.Handle
		if db.pins[h]--; db.pins[h] <= 0 {
			delete(db.pins, h)
			if fn := db.doomed[h]; fn != nil {
				delete(db.doomed, h)
				release = append(release, fn)
			}
		}
	}
	removeDir := false
	if db.closed && db.dirWait && len(db.pins) == 0 {
		db.dirWait = false
		removeDir = true
	}
	db.pinMu.Unlock()
	for _, fn := range release {
		fn() //nolint:errcheck // deferred release; nowhere to report
	}
	if removeDir {
		os.RemoveAll(db.dataDir) //nolint:errcheck
	}
}

// activePins reports the number of distinct pinned table handles (tests).
func (db *DB) activePins() int {
	db.pinMu.Lock()
	defer db.pinMu.Unlock()
	return len(db.pins)
}

// PlanCacheCounters returns the cumulative prepared-plan cache hit and miss
// counts across the DB's lifetime (a hit means a query skipped parsing and
// table resolution entirely).
func (db *DB) PlanCacheCounters() (hits, misses int64) {
	return db.planHits.Load(), db.planMisses.Load()
}

// RawOptions tune an in-situ registration; the zero value (or nil) gives the
// paper's PostgresRaw defaults: all adaptive components enabled, unlimited
// budgets.
type RawOptions struct {
	Delim            byte  // field separator, default ','
	ChunkRows        int   // rows per processing chunk, default 1024
	PosMapBudget     int64 // positional map byte budget, 0 = unlimited
	CacheBudget      int64 // cache byte budget, 0 = unlimited
	DisablePosMap    bool
	DisableCache     bool
	DisableStats     bool
	MapEveryNth      int // keep every Nth tokenized position, default 1
	StatsSampleEvery int // sample one row in N for statistics, default 16
	// Parallelism is the number of chunk workers a scan of this table is
	// sized for (it keeps at most 4 × Parallelism chunks in flight). 0 inherits the DB's Config.Parallelism (which itself defaults
	// to GOMAXPROCS); 1 runs the pipeline inline on the caller's goroutine.
	Parallelism int
	// PartitionBytes serves a single-file registration as byte-range
	// segments of roughly this many bytes (rounded forward to row
	// boundaries at first scan), each with its own positional-map/cache
	// territory, scanned like the files of a glob. 0 partitions
	// automatically when the file is at least 256 MiB; < 0 disables
	// partitioning. Ignored for multi-file (glob) locations. The DDL
	// equivalent is WITH (partition_bytes = N).
	PartitionBytes int64
	// OnError selects the malformed-input policy: "null" (or "", the
	// default) nulls a field that does not convert and counts the event,
	// "fail" aborts the query with a typed error, "skip" drops the
	// offending row. The DDL equivalent is WITH (on_error = '...').
	OnError string
	// MaxErrors, when > 0, fails a query once more than MaxErrors
	// malformed-input events accumulated during its scan of this table,
	// whatever the table's segment layout. 0 = unlimited.
	MaxErrors int64
}

func (o *RawOptions) coreOptions(defaultParallelism int) (core.Options, error) {
	opts := core.Options{
		EnablePosMap: true,
		EnableCache:  true,
		EnableStats:  true,
		Parallelism:  defaultParallelism,
	}
	if o == nil {
		return opts, nil
	}
	onErr, err := core.ParseOnErrorPolicy(strings.ToLower(o.OnError))
	if err != nil {
		return opts, fmt.Errorf("nodb: %w", err)
	}
	opts.OnError = onErr
	if o.MaxErrors < 0 {
		return opts, fmt.Errorf("nodb: MaxErrors must be >= 0, got %d", o.MaxErrors)
	}
	opts.MaxErrors = o.MaxErrors
	opts.Delim = o.Delim
	opts.ChunkRows = o.ChunkRows
	opts.PosMapBudget = o.PosMapBudget
	opts.CacheBudget = o.CacheBudget
	opts.EnablePosMap = !o.DisablePosMap
	opts.EnableCache = !o.DisableCache
	opts.EnableStats = !o.DisableStats
	opts.MapEveryNth = o.MapEveryNth
	opts.StatsSampleEvery = o.StatsSampleEvery
	if o.Parallelism != 0 {
		opts.Parallelism = o.Parallelism
	}
	return opts, nil
}

// SchedulerStats is a live snapshot of the DB-level chunk scheduler (the
// shared worker pool raw scans submit their chunk work to).
type SchedulerStats = sched.Stats

// SchedulerStats reports the DB's chunk-scheduler counters: worker bound,
// currently running workers, scan queues and their queued tasks, plus
// lifetime totals. The counters are monitoring telemetry — they vary with
// timing and are deliberately kept out of QueryStats, whose counters are
// deterministic.
func (db *DB) SchedulerStats() SchedulerStats {
	return db.sched.Stats()
}

// RegisterRaw attaches a CSV file for in-situ querying (the PostgresRaw
// mode). The file is not read — data-to-query time is zero. schemaSpec is
// "name:type,..." (types: int, float, text, bool, date); empty infers the
// schema from a sample of the file. csvPath may be a glob, in which case the
// matched files form an ordered sharded table.
//
// RegisterRaw is a thin wrapper over CreateTable (the DDL-first catalog
// surface); new code should prefer CreateTable or Exec with
// CREATE EXTERNAL TABLE.
func (db *DB) RegisterRaw(name, csvPath, schemaSpec string, opts *RawOptions) error {
	return db.CreateTable(TableSpec{Name: name, Location: csvPath, Schema: schemaSpec, Mode: "raw", Raw: opts})
}

// RegisterBaseline attaches a CSV file in "external files" mode: every query
// tokenizes and parses the raw file from scratch, with no adaptive
// structures (the paper's Baseline configuration).
//
// RegisterBaseline is a thin wrapper over CreateTable; new code should
// prefer CreateTable or Exec with CREATE EXTERNAL TABLE ... USING baseline.
func (db *DB) RegisterBaseline(name, csvPath, schemaSpec string) error {
	return db.CreateTable(TableSpec{Name: name, Location: csvPath, Schema: schemaSpec, Mode: "baseline"})
}

// Profile selects which conventional contender a Load imitates. The
// difference is the initialization work done before the first query.
type Profile uint8

// Load profiles (the friendly race contestants).
const (
	// ProfilePostgres loads into binary heap pages and runs ANALYZE
	// (statistics) during the load.
	ProfilePostgres Profile = iota
	// ProfileMySQL loads into binary heap pages without statistics.
	ProfileMySQL
	// ProfileDBMSX loads, collects statistics, and builds B+tree indexes on
	// the requested columns before the first query (load + tuning).
	ProfileDBMSX
)

// String names the profile.
func (p Profile) String() string {
	switch p {
	case ProfilePostgres:
		return "postgres"
	case ProfileMySQL:
		return "mysql"
	case ProfileDBMSX:
		return "dbms-x"
	default:
		return fmt.Sprintf("Profile(%d)", uint8(p))
	}
}

// Load registers a table the conventional way: the whole CSV is parsed,
// converted and written to binary heap storage (plus statistics/indexes per
// the profile) before the call returns. The returned duration is the
// initialization time the paper's race charges before the first query;
// stats carries its cost breakdown.
//
// Load is a thin wrapper over the CreateTable path (USING load in DDL);
// CreateTable discards the load timing, so callers that race the
// contenders keep using Load.
func (db *DB) Load(name, csvPath, schemaSpec string, profile Profile, indexCols ...string) (time.Duration, *QueryStats, error) {
	return db.createTable(TableSpec{
		Name: name, Location: csvPath, Schema: schemaSpec, Mode: "load",
		Profile: profile, IndexCols: indexCols,
	})
}

// Tables lists the registered table names.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cat.Names()
}

// Drop removes a table registration (heap files of loaded tables are kept
// until Close). Queries already streaming over the table hold pins and run
// to completion unaffected. Dropping a name that is not registered is a
// no-op: it reports false and leaves the plan cache valid (the catalog
// generation only advances on an actual drop).
func (db *DB) Drop(name string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.cat.Drop(name) {
		return false
	}
	db.catGen.Add(1)
	return true
}

// Refresh checks a raw table's file for outside changes (the demo's Updates
// scenario) and adapts its structures. Returns "unchanged", "appended" or
// "rewritten".
func (db *DB) Refresh(name string) (string, error) {
	t, err := db.rawTable(name)
	if err != nil {
		return "", err
	}
	change, err := t.Refresh()
	return change.String(), err
}

// SetBudgets adjusts a raw table's positional-map and cache byte budgets
// (the demo's storage sliders); shrinking evicts immediately.
func (db *DB) SetBudgets(name string, posMapBudget, cacheBudget int64) error {
	t, err := db.rawTable(name)
	if err != nil {
		return err
	}
	t.SetBudgets(posMapBudget, cacheBudget)
	return nil
}

// SetComponents toggles a raw table's adaptive components at run time (the
// demo's checkboxes).
func (db *DB) SetComponents(name string, posMap, cache, stats bool) error {
	t, err := db.rawTable(name)
	if err != nil {
		return err
	}
	t.SetEnabled(posMap, cache, stats)
	return nil
}

func (db *DB) rawTable(name string) (*core.Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	entry, ok := db.cat.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("nodb: unknown table %q", name)
	}
	t, ok := entry.Handle.(*core.Table)
	if !ok {
		return nil, fmt.Errorf("nodb: table %q is not a raw table", name)
	}
	return t, nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
