package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nodb"
	"nodb/internal/datagen"
	"nodb/internal/workload"
)

// instance is one workload prepared for a run. Set-up is generate + open;
// reference is the benchmark's own check and is not part of either.
type instance interface {
	// generate writes the workload's raw files from the seed.
	generate() error
	// reference makes one naive pass over the files and fills in what every
	// query must return.
	reference() error
	// open opens the database, registers the files and warms up, using c.
	open(c *client) error
	// clients is the number of closed-loop callers the timed phase runs.
	clients() int
	// round is one unit of work and one latency sample: it returns the
	// round's wall time, less any pause the traced run spent observing.
	round(c *client, r int) time.Duration
	// snapshot reports the adaptive structures as they stand after a round;
	// whatever it has to run to see them is counted on c.
	snapshot(c *client) (structStats, error)
	// pool snapshots the scheduler pool the workload's scans run on.
	pool() nodb.SchedulerStats
	close() error
	files() []*dataset
	queries() []*query
}

// workloadDef names a workload and says why it exists; BENCHMARK.json
// carries the same names and reasons.
type workloadDef struct {
	name string
	why  string
	new  func(e *env) instance
}

var workloadDefs = []workloadDef{
	{"cold_first_query",
		"data-to-first-answer on a fresh DB: rawfile tokenizing, value conversion and posmap/rawcache/stats population do the work, cache serving none",
		newColdFirstQuery},
	{"warm_filter_project",
		"steady state where raw files behave like loaded tables: rawcache serve, vector expr, engine and the Rows cursor work, rawfile reads nothing",
		newWarmFilterProject},
	{"shifting_budget",
		"working set larger than the posmap and cache budgets: eviction, map-jump/near and partial re-tokenizing dominate (the Fig. 2 scenario)",
		newShiftingBudget},
	{"concurrent_groupby",
		"nproc clients share one warm DB and a bounded pool: sched queues, ordered merge, aggregate push-down and HashAgg merge under contention",
		newConcurrentGroupBy},
	{"append_requery",
		"writes beside reads: change detection and incremental extension of posmap/rawcache after every outside append, small constant costs visible",
		newAppendRequery},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// The fixed statements. W5's text literal is 'v3' because datagen renders
// every user as v<number>: a literal below 'v' would keep no row.
const (
	sqlQsel = "SELECT a3, a6 FROM t WHERE a3 < 250 AND a6 >= 0"
	sqlW1   = "SELECT count(*) FROM t WHERE a3 < 250 AND a6 > 500"
	sqlW3   = "SELECT sum(a3), sum(a6) FROM t"
	sqlW4   = "SELECT a3 + a6 FROM t WHERE a3 < 10"
	sqlW5   = "SELECT count(*) FROM m WHERE score < 5000.0 AND user < 'v3'"
	sqlG1   = "SELECT a1, count(*), sum(a4) FROM t GROUP BY a1"
	sqlG2   = "SELECT user, count(*), avg(score) FROM m GROUP BY user"
	sqlG3   = "SELECT grp, count(*), max(score) FROM m WHERE score > 100.0 GROUP BY grp"
	sqlA1   = "SELECT count(*), sum(a3) FROM t WHERE a6 >= 0"
)

func evalQsel() intsEval {
	return selectInts(func(a []int64) bool { return a[3] < 250 && a[6] >= 0 }, col(3), col(6))
}
func evalW1() intsEval {
	return aggInts(func(a []int64) bool { return a[3] < 250 && a[6] > 500 }, one)
}
func evalW3() intsEval { return aggInts(all, col(3), col(6)) }
func evalW4() intsEval {
	return selectInts(func(a []int64) bool { return a[3] < 10 }, func(a []int64) int64 { return a[3] + a[6] })
}
func evalG1() intsEval { return groupCountSumInts(1, 4) }
func evalA1() intsEval {
	return aggInts(func(a []int64) bool { return a[6] >= 0 }, one, col(3))
}

func evalW5() mixedEval {
	var n int64
	return mixedEval{
		row: func(r *mixedRow) {
			if r.score < 5000.0 && r.user < "v3" {
				n++
			}
		},
		done: func() digest { d := digest{rows: 1}; d.addInt(0, n); return d },
	}
}

func evalG2() mixedEval {
	type st struct {
		n   int64
		sum float64
	}
	groups := map[string]*st{}
	return mixedEval{
		row: func(r *mixedRow) {
			g := groups[r.user]
			if g == nil {
				g = &st{}
				groups[r.user] = g
			}
			g.n++
			g.sum += r.score
		},
		done: func() digest {
			var d digest
			for k, g := range groups {
				d.rows++
				d.addText(0, k)
				d.addInt(1, g.n)
				d.addFloat(2, g.sum/float64(g.n))
			}
			return d
		},
	}
}

func evalG3() mixedEval {
	type st struct {
		n   int64
		max float64
	}
	groups := map[int64]*st{}
	return mixedEval{
		row: func(r *mixedRow) {
			if !(r.score > 100.0) {
				return
			}
			g := groups[r.grp]
			if g == nil {
				g = &st{max: r.score}
				groups[r.grp] = g
			}
			g.n++
			if r.score > g.max {
				g.max = r.score
			}
		},
		done: func() digest {
			var d digest
			for k, g := range groups {
				d.rows++
				d.addInt(0, k)
				d.addInt(1, g.n)
				d.addFloat(2, g.max)
			}
			return d
		},
	}
}

// fixedQueries builds the named statements over the integer table t and the
// mixed table m, each with its naive evaluation attached.
func fixedQueries(t, m *dataset) map[string]*query {
	return map[string]*query{
		"qsel": {name: "qsel", sql: sqlQsel, table: t, kinds: "ii", ints: evalQsel},
		"w1":   {name: "w1", sql: sqlW1, table: t, kinds: "i", ints: evalW1},
		"w2":   {name: "w2", sql: sqlQsel, table: t, kinds: "ii", ints: evalQsel},
		"w3":   {name: "w3", sql: sqlW3, table: t, kinds: "ii", ints: evalW3},
		"w4":   {name: "w4", sql: sqlW4, table: t, kinds: "i", ints: evalW4},
		"w5":   {name: "w5", sql: sqlW5, table: m, kinds: "i", mixed: evalW5},
		"g1":   {name: "g1", sql: sqlG1, table: t, kinds: "iii", ints: evalG1},
		"g2":   {name: "g2", sql: sqlG2, table: m, kinds: "sif", mixed: evalG2},
		"g3":   {name: "g3", sql: sqlG3, table: m, kinds: "iif", mixed: evalG3},
		"a1":   {name: "a1", sql: sqlA1, table: t, kinds: "ii", ints: evalA1},
	}
}

func pick(all map[string]*query, names ...string) []*query {
	out := make([]*query, len(names))
	for i, n := range names {
		out[i] = all[n]
	}
	return out
}

// reference makes one naive pass over each file the queries read and stores
// what every query must return.
func reference(qs []*query) error {
	done := map[*dataset]bool{}
	for _, q := range qs {
		d := q.table
		if done[d] {
			continue
		}
		done[d] = true
		var onD []*query
		var ints []intsEval
		var mixed []mixedEval
		for _, o := range qs {
			if o.table != d {
				continue
			}
			onD = append(onD, o)
			if o.ints != nil {
				ints = append(ints, o.ints())
			} else {
				mixed = append(mixed, o.mixed())
			}
		}
		switch {
		case len(mixed) == 0:
			if err := scanInts(d.path, len(d.spec.Cols), ints); err != nil {
				return err
			}
			for i, o := range onD {
				o.want = ints[i].done()
			}
		case len(ints) == 0:
			if err := scanMixed(d.path, mixed); err != nil {
				return err
			}
			for i, o := range onD {
				o.want = mixed[i].done()
			}
		default:
			return fmt.Errorf("reference: %s is read both as an integer and as a mixed table", d.name)
		}
	}
	return nil
}

// openDB opens a database whose load-first heap directory, like everything
// else the benchmark writes, lies inside the run's scratch directory.
func (e *env) openDB(maxWorkers int) (*nodb.DB, error) {
	return nodb.Open(nodb.Config{DataDir: filepath.Join(e.dir, "heap"), MaxWorkers: maxWorkers})
}

// ---------------------------------------------------------------------------
// cold_first_query

type coldFirstQuery struct {
	e    *env
	t    *dataset
	q    *query
	snap bool        // take a panel snapshot before the next Close
	last structStats // the structures as the last snapshot saw them
}

func newColdFirstQuery(e *env) instance {
	t := e.ints10()
	return &coldFirstQuery{e: e, t: t, q: fixedQueries(t, nil)["qsel"]}
}

func (w *coldFirstQuery) generate() error   { return w.t.generate() }
func (w *coldFirstQuery) reference() error  { return reference(w.queries()) }
func (w *coldFirstQuery) clients() int      { return 1 }
func (w *coldFirstQuery) files() []*dataset { return []*dataset{w.t} }
func (w *coldFirstQuery) queries() []*query { return []*query{w.q} }
func (w *coldFirstQuery) close() error      { return nil }

// open does nothing: the workload is cold by definition, and every round
// opens its own database.
func (w *coldFirstQuery) open(*client) error { return nil }

func (w *coldFirstQuery) round(c *client, r int) time.Duration {
	t0 := time.Now()
	rs := w.e.tr.begin("round", -1, r, c.id)
	defer w.e.tr.end(rs)
	var db *nodb.DB
	if !c.op("open", rs, r, func() (err error) { db, err = w.e.openDB(0); return }) {
		return time.Since(t0)
	}
	if c.op("register", rs, r, func() error { return db.Exec(context.Background(), w.t.ddl("")) }) {
		c.run(db, w.q, rs, r)
	}
	var paused time.Duration
	if w.e.tr != nil || w.snap {
		p0 := time.Now()
		w.observe(db)
		paused = time.Since(p0)
	}
	c.op("db_close", rs, r, db.Close)
	return time.Since(t0) - paused
}

// observe records the structures a cold round built, before Close drops them.
func (w *coldFirstQuery) observe(db *nodb.DB) {
	s, err := panelStats(db, w.files())
	if err != nil {
		return // registration failed, and the round has counted that
	}
	w.last = s
	if w.e.tr != nil {
		w.e.obs.round(s) // a fresh database: the counters are the round's own
	}
}

// snapshot runs one more round, because a cold round's structures are gone
// once it closes its database. A wrong answer in that round is c's to count:
// the structures it built are reported all the same.
func (w *coldFirstQuery) snapshot(c *client) (structStats, error) {
	w.snap = true
	defer func() { w.snap = false }()
	w.round(c, -1)
	return w.last, nil
}

// pool: cold databases run on the process-wide default pool, which any
// database opened with MaxWorkers = 0 shares.
func (w *coldFirstQuery) pool() nodb.SchedulerStats {
	db, err := w.e.openDB(0)
	if err != nil {
		return nodb.SchedulerStats{}
	}
	defer db.Close()
	return db.SchedulerStats()
}

// ---------------------------------------------------------------------------
// The workloads that keep one database open for the whole run.

type steady struct {
	e          *env
	tables     []*dataset
	with       map[*dataset]string // DDL options per table
	maxWorkers int
	nclients   int
	warmups    int // untimed passes over qs during open
	qs         []*query
	// before, when set, runs at the start of every round (append_requery).
	before func(c *client, rs, r int) bool

	db   *nodb.DB
	mu   sync.Mutex // guards prev across concurrent clients (traced run only)
	prev structStats
}

func (w *steady) generate() error {
	for _, d := range w.tables {
		if err := d.generate(); err != nil {
			return err
		}
	}
	return nil
}

func (w *steady) reference() error  { return reference(w.qs) }
func (w *steady) clients() int      { return w.nclients }
func (w *steady) files() []*dataset { return w.tables }
func (w *steady) queries() []*query { return w.qs }

func (w *steady) open(c *client) error {
	ok := c.op("open", -1, -1, func() (err error) { w.db, err = w.e.openDB(w.maxWorkers); return })
	for _, d := range w.tables {
		d := d
		ok = ok && c.op("register", -1, -1, func() error { return w.db.Exec(context.Background(), d.ddl(w.with[d])) })
	}
	if !ok {
		return fmt.Errorf("set-up: %s", c.firstFail)
	}
	for i := 0; i < w.warmups; i++ {
		w.pass(c, -1, -1)
	}
	var err error
	w.prev, err = panelStats(w.db, w.tables)
	return err
}

// pass runs every query once; client i starts at query i mod len(qs).
func (w *steady) pass(c *client, rs, r int) {
	for i := range w.qs {
		c.run(w.db, w.qs[(c.id+i)%len(w.qs)], rs, r)
	}
}

func (w *steady) round(c *client, r int) time.Duration {
	t0 := time.Now()
	rs := w.e.tr.begin("round", -1, r, c.id)
	if w.before == nil || w.before(c, rs, r) {
		w.pass(c, rs, r)
	}
	w.e.tr.end(rs)
	d := time.Since(t0)
	if w.e.tr != nil {
		w.mu.Lock()
		//nodbvet:lockorder-ok traced run only: the lock orders the clients' snapshots so that each delta is a round's own, and nothing else waits on it
		if cur, err := panelStats(w.db, w.tables); err == nil {
			w.e.obs.round(cur.minus(w.prev))
			w.prev = cur
		}
		w.mu.Unlock()
	}
	return d
}

func (w *steady) snapshot(*client) (structStats, error) { return panelStats(w.db, w.tables) }
func (w *steady) pool() nodb.SchedulerStats             { return w.db.SchedulerStats() }

func (w *steady) close() error {
	if w.db == nil {
		return nil
	}
	err := w.db.Close()
	w.db = nil
	return err
}

func newWarmFilterProject(e *env) instance {
	t, m := e.ints10(), e.mixed5()
	qs := pick(fixedQueries(t, m), "w1", "w2", "w3", "w4", "w5")
	for _, q := range qs {
		q.cached = true
	}
	return &steady{e: e, tables: []*dataset{t, m}, nclients: 1, warmups: 2, qs: qs}
}

// Budgets of shifting_budget at -scale 1: the cache holds about 1.5 of the
// 10 typed columns, the positional map about a quarter of its full size.
const (
	shiftPosMapBudget = 8 << 20
	shiftCacheBudget  = 12 << 20
	// shiftingListSeed fixes the statement list; only the data follows
	// -seed. Which attributes a window draws decides how much of a cycle the
	// cache can serve, so a list that changed with the seed would change the
	// work and not only the inputs.
	shiftingListSeed = 12
)

func newShiftingBudget(e *env) instance {
	t := e.ints10s()
	w := &steady{e: e, tables: []*dataset{t}, nclients: 1, warmups: 1,
		with: map[*dataset]string{t: fmt.Sprintf("posmap_budget = %d, cache_budget = %d",
			int64(shiftPosMapBudget*e.cfg.scale), int64(shiftCacheBudget*e.cfg.scale))}}
	for i, sq := range workload.ShiftingWindows("t", t.spec.Schema(), 3, 2, shiftingListSeed) {
		sql := sq.SQL
		w.qs = append(w.qs, &query{name: fmt.Sprintf("s%d", i+1), sql: sql, table: t, kinds: "ii",
			ints: func() intsEval { return shiftingEval(sql) }})
	}
	return w
}

func newConcurrentGroupBy(e *env) instance {
	t, m := e.ints("ints10c", ints10cRows, 0), e.mixed("mixed5c", mixed5cRows)
	return &steady{e: e, tables: []*dataset{t, m}, nclients: e.nproc, maxWorkers: e.nproc, warmups: 2,
		qs: pick(fixedQueries(t, m), "g1", "g2", "g3", "w1")}
}

// newSoloClasses is the per-layer run's solo section: every fixed statement
// class on one warm database with one client.
func newSoloClasses(e *env) *steady {
	t, m := e.ints10(), e.mixed5()
	return &steady{e: e, tables: []*dataset{t, m}, nclients: 1, warmups: 1,
		qs: pick(fixedQueries(t, m), "w1", "w2", "w3", "w4", "w5", "g1", "g2", "g3")}
}

// appendRequery is steady plus what an appended file needs: one
// pre-rendered block written at the start of every round, an expectation
// that grows by the block's own digest, and a reset when set-up regenerates
// the file.
type appendRequery struct {
	*steady
	a1        *query
	blockFile *dataset
	block     []byte
	base      digest // what a1 returns on the file as generated
	perBlock  digest // what each appended block adds to it
}

func newAppendRequery(e *env) instance {
	t := e.ints10s()
	w := &appendRequery{
		steady: &steady{e: e, tables: []*dataset{t}, nclients: 1, warmups: 2},
		a1:     fixedQueries(t, nil)["a1"],
		blockFile: &dataset{name: "append-block", spec: datagen.IntTable(appendRows, 10, e.cfg.seed+3),
			path: filepath.Join(e.dir, "append-block.csv")},
	}
	w.qs = []*query{w.a1}
	w.before = w.appendBlock
	return w
}

func (w *appendRequery) generate() error {
	w.a1.want = w.base // a fresh file has no block appended
	return w.steady.generate()
}

func (w *appendRequery) reference() error {
	if err := w.blockFile.generate(); err != nil {
		return err
	}
	var err error
	if w.block, err = os.ReadFile(w.blockFile.path); err != nil {
		return fmt.Errorf("append block: %w", err)
	}
	onBlock := *w.a1
	onBlock.table = w.blockFile
	if err := reference([]*query{w.a1, &onBlock}); err != nil {
		return err
	}
	w.base, w.perBlock = w.a1.want, onBlock.want
	w.perBlock.rows = 0 // a global aggregate stays one row however many blocks it covers
	return nil
}

func (w *appendRequery) appendBlock(c *client, rs, r int) bool {
	t := w.tables[0]
	if !c.op("append_write", rs, r, func() error { return appendFile(t.path, w.block) }) {
		return false
	}
	t.bytes += int64(len(w.block))
	w.a1.want = w.a1.want.plus(w.perBlock)
	return true
}
