package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"nodb"
	"nodb/internal/core"
	"nodb/internal/datagen"
	"nodb/internal/engine"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/planner"
	"nodb/internal/posmap"
	"nodb/internal/rawcache"
	"nodb/internal/rawfile"
	"nodb/internal/sched"
	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/stats"
	"nodb/internal/storage"
	"nodb/internal/value"
)

// The ladder calls each layer's exported functions directly, one rung per
// layer, single-threaded unless the rung's name says otherwise, over one
// generated file. It is the only part of the benchmark that knows internal
// signatures: a change to an internal API updates this file with it.

const (
	ladderRows  = 400_000 // rows of the ladder's file at -scale 1
	ladderReps  = 3       // every rung is the median of this many timings
	chunkRows   = 1024    // the engine's default rows per chunk
	ladderFloat = 100_000 // float fields parsed by value.parse_float_ns_field
)

type ladder struct {
	e     *env
	m     metricSet
	path  string
	sch   *schema.Schema
	data  []byte   // the whole file
	rows  [][]byte // each line of data, without its terminator
	a3    [][]byte // field a3 of each line
	ints3 []int64  // a3 parsed
}

// timed returns the median wall time of ladderReps calls of fn.
func timed(fn func() error) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < ladderReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return medianDuration(ds), nil
}

func (l *ladder) n() float64 { return float64(len(l.rows)) }

// nsPer times fn and reports its median wall time, in nanoseconds, per one of
// the count things it processed.
func (l *ladder) nsPer(name, unit string, count float64, fn func() error) error {
	d, err := timed(fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	l.m.put(name, float64(d)/count, unit)
	return nil
}

func (l *ladder) perRow(name string, fn func() error) error {
	return l.nsPer(name, "ns/row", l.n(), fn)
}

func (l *ladder) mbPerS(name string, fn func() error) error {
	d, err := timed(fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	l.m.put(name, float64(len(l.data))/1e6/d.Seconds(), "MB/s")
	return nil
}

func runLadder(e *env) (metricSet, error) {
	l := &ladder{e: e, m: metricSet{}}
	for _, step := range []func() error{
		l.prepare, l.rawfile, l.value, l.posmap, l.rawcache, l.stats,
		l.coreScans, l.coreLayouts, l.coreRefresh, l.expr, l.engine, l.frontend, l.sched,
	} {
		if err := step(); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	return l.m, nil
}

func (l *ladder) prepare() error {
	spec := datagen.IntTable(l.e.rows(ladderRows), 10, l.e.cfg.seed+4)
	l.path = filepath.Join(l.e.dir, "ladder.csv")
	l.sch = spec.Schema()
	if _, err := spec.WriteFile(l.path); err != nil {
		return err
	}
	var err error
	if l.data, err = os.ReadFile(l.path); err != nil {
		return err
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(l.data, []byte{'\n'}), []byte{'\n'}) {
		l.rows = append(l.rows, line)
		f := bytes.Split(line, []byte{','})[3]
		l.a3 = append(l.a3, f)
		v, err := strconv.ParseInt(string(f), 10, 64)
		if err != nil {
			return err
		}
		l.ints3 = append(l.ints3, v)
	}
	return nil
}

func (l *ladder) rawfile() error {
	if err := l.mbPerS("rawfile.chunk_read_mb_s", func() error {
		r, err := rawfile.Open(l.path, nil)
		if err != nil {
			return err
		}
		defer r.Close()
		cr := rawfile.NewChunkReader(r, 0)
		var ch rawfile.Chunk
		rows := 0
		for {
			err := cr.NextChunk(chunkRows, &ch)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			rows += ch.Rows
		}
		if rows != len(l.rows) {
			return fmt.Errorf("chunk reader saw %d rows, file has %d", rows, len(l.rows))
		}
		return nil
	}); err != nil {
		return err
	}
	tokenize := func(upto int) func() error {
		return func() error {
			var ends []int32
			for _, row := range l.rows {
				ends = rawfile.TokenizeUpTo(row, ',', 0, upto, 0, ends[:0])
			}
			if len(ends) != upto+1 {
				return fmt.Errorf("tokenized %d fields, want %d", len(ends), upto+1)
			}
			return nil
		}
	}
	if err := l.mbPerS("rawfile.tokenize_full_mb_s", tokenize(9)); err != nil {
		return err
	}
	return l.mbPerS("rawfile.tokenize_selective_mb_s", tokenize(6))
}

func (l *ladder) value() error {
	if err := l.perRow("value.parse_int_ns_field", func() error {
		for _, f := range l.a3 {
			if _, err := value.ParseInt(f); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(l.e.cfg.seed + 5))
	floats := make([][]byte, ladderFloat)
	for i := range floats {
		floats[i] = strconv.AppendFloat(nil, rng.Float64()*10000, 'f', 2, 64)
	}
	if err := l.nsPer("value.parse_float_ns_field", "ns/field", ladderFloat, func() error {
		for _, f := range floats {
			if _, err := value.Parse(f, value.KindFloat); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	return l.perRow("value.group_key_ns_row", func() error {
		var buf []byte
		vals := []value.Value{value.Int(0)}
		for _, v := range l.ints3 {
			vals[0].I = v
			buf = value.AppendGroupKey(buf[:0], vals)
		}
		if len(buf) == 0 {
			return errors.New("empty group key")
		}
		return nil
	})
}

// posmap: the delimiters a scan of attributes {3,6} learns (row start and
// the ends of fields 0..6), with synthetic offsets, chunk by chunk.
func (l *ladder) posmap() error {
	delims := []int16{-1, 0, 1, 2, 3, 4, 5, 6}
	pos := make([]uint32, chunkRows*len(delims))
	for i := range pos {
		pos[i] = uint32(i * 4)
	}
	nchunks := len(l.rows) / chunkRows
	var m *posmap.Map
	if err := l.nsPer("posmap.populate_ns_row", "ns/row", float64(nchunks*chunkRows), func() error {
		m = posmap.New(0)
		for c := 0; c < nchunks; c++ {
			m.Populate(c, int64(c)*int64(len(pos))*4, chunkRows, delims, pos)
		}
		return nil
	}); err != nil {
		return err
	}
	positions := float64(nchunks * chunkRows * len(delims))
	l.m.put("posmap.bytes_per_position", float64(m.Stats().UsedBytes)/positions, "bytes")

	lookup := func(name string, fn func(v *posmap.View, r int) bool) error {
		return l.nsPer(name, "ns", float64(nchunks*chunkRows), func() error {
			for c := 0; c < nchunks; c++ {
				v, ok := m.ViewChunk(c)
				if !ok {
					return fmt.Errorf("chunk %d is not mapped", c)
				}
				for r := 0; r < chunkRows; r++ {
					if !fn(&v, r) {
						return fmt.Errorf("chunk %d row %d: lookup missed", c, r)
					}
				}
			}
			return nil
		})
	}
	if err := lookup("posmap.pos_lookup_ns", func(v *posmap.View, r int) bool {
		_, ok := v.Pos(r, 3)
		return ok
	}); err != nil {
		return err
	}
	return lookup("posmap.nearest_lookup_ns", func(v *posmap.View, r int) bool {
		_, _, ok := v.NearestAtOrBelow(r, 8)
		return ok
	})
}

func (l *ladder) rawcache() error {
	nchunks := len(l.rows) / chunkRows
	var c *rawcache.Cache
	if err := l.nsPer("rawcache.build_put_ns_value", "ns/row", float64(nchunks*chunkRows), func() error {
		c = rawcache.New(0)
		for ch := 0; ch < nchunks; ch++ {
			b := rawcache.NewBuilder(rawcache.Key{Chunk: ch, Attr: 3}, value.KindInt, chunkRows)
			for _, v := range l.ints3[ch*chunkRows : (ch+1)*chunkRows] {
				b.Append(value.Int(v))
			}
			c.Put(b.Finish())
		}
		return nil
	}); err != nil {
		return err
	}
	l.m.put("rawcache.bytes_per_value", float64(c.Stats().UsedBytes)/float64(nchunks*chunkRows), "bytes")
	return l.nsPer("rawcache.get_read_ns_value", "ns/row", float64(nchunks*chunkRows), func() error {
		var sum int64
		for ch := 0; ch < nchunks; ch++ {
			f, ok := c.Get(rawcache.Key{Chunk: ch, Attr: 3})
			if !ok {
				return fmt.Errorf("chunk %d is not cached", ch)
			}
			for r := 0; r < chunkRows; r++ {
				sum += f.Value(r).I
			}
		}
		if sum == 0 {
			return errors.New("cache returned only zeros")
		}
		return nil
	})
}

func (l *ladder) stats() error {
	vals := make([]value.Value, len(l.ints3))
	for i, v := range l.ints3 {
		vals[i] = value.Int(v)
	}
	whole := len(vals) / chunkRows * chunkRows
	return l.nsPer("stats.observe_ns_value", "ns/row", float64(whole), func() error {
		c := stats.NewCollector(10, stats.DefaultSampleCap)
		for lo := 0; lo < whole; lo += chunkRows {
			c.ObserveBatch(3, value.KindInt, vals[lo:lo+chunkRows])
		}
		return nil
	})
}

// drain runs one scan of attributes {3,6} to its end through the batch
// protocol and returns the rows it saw.
func drain(t core.RawTable, needed []int) (int, error) {
	var b metrics.Breakdown
	sc, err := t.OpenScan(core.ScanSpec{Needed: needed, B: &b})
	if err != nil {
		return 0, err
	}
	defer sc.Close()
	rows := 0
	for {
		batch, ok, err := sc.NextBatch()
		if err != nil {
			return rows, err
		}
		if !ok {
			return rows, nil
		}
		rows += len(batch.Sel)
	}
}

func (l *ladder) scanAll(t core.RawTable) error {
	rows, err := drain(t, []int{3, 6})
	if err == nil && rows != len(l.rows) {
		err = fmt.Errorf("scan returned %d rows, file has %d", rows, len(l.rows))
	}
	return err
}

// coldScan times a scan of a table built afresh for every timing.
func (l *ladder) coldScan(build func() (core.RawTable, error)) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < ladderReps; i++ {
		t, err := build()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := l.scanAll(t); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return medianDuration(ds), nil
}

func (l *ladder) plain(opts core.Options) func() (core.RawTable, error) {
	return func() (core.RawTable, error) { return core.NewTable(l.path, l.sch, opts) }
}

func withPar(o core.Options, par int, pool *sched.Pool) core.Options {
	o.Parallelism, o.Scheduler = par, pool
	return o
}

func (l *ladder) coreScans() error {
	nproc := l.e.nproc
	cold, err := l.coldScan(l.plain(withPar(core.BaselineOptions(), 1, nil)))
	if err != nil {
		return fmt.Errorf("core.scan_cold_ns_row: %w", err)
	}
	l.m.put("core.scan_cold_ns_row", float64(cold)/l.n(), "ns/row")

	warm := func(name string, opts core.Options) (*core.Table, error) {
		t, err := core.NewTable(l.path, l.sch, opts)
		if err != nil {
			return nil, err
		}
		if err := l.scanAll(t); err != nil { // learn
			return nil, err
		}
		return t, l.perRow(name, func() error { return l.scanAll(t) })
	}
	if _, err := warm("core.scan_warm_posmap_ns_row", withPar(core.Options{EnablePosMap: true}, 1, nil)); err != nil {
		return err
	}
	if _, err := warm("core.scan_warm_cache_ns_row", withPar(core.InSituOptions(), 1, nil)); err != nil {
		return err
	}

	par, err := l.coldScan(l.plain(withPar(core.BaselineOptions(), nproc, sched.NewPool(nproc))))
	if err != nil {
		return fmt.Errorf("core.scan_cold_parallel_ns_row: %w", err)
	}
	l.m.put("core.scan_cold_parallel_ns_row", float64(par)/l.n(), "ns/row")
	l.m.put("core.parallel_speedup", ratio(float64(cold), float64(par)), "ratio")

	// The pipeline with two chunks in flight on a pool of one worker does the
	// sequential scan's work plus the ordered merge's.
	merged, err := l.coldScan(l.plain(withPar(core.BaselineOptions(), 2, sched.NewPool(1))))
	if err != nil {
		return fmt.Errorf("core.ordered_merge_overhead_ratio: %w", err)
	}
	l.m.put("core.ordered_merge_overhead_ratio", ratio(float64(merged), float64(cold)), "ratio")

	// Aggregate push-down: GROUP BY a1 with count(*) and sum(a4), folded by
	// the scan workers of a warm table.
	t, err := core.NewTable(l.path, l.sch, withPar(core.InSituOptions(), nproc, sched.NewPool(nproc)))
	if err != nil {
		return err
	}
	env := expr.NewEnv()
	env.Add("", "a1", value.KindInt)
	env.Add("", "a4", value.KindInt)
	push := func() error {
		var b metrics.Breakdown
		sc, err := t.NewScan(core.ScanSpec{Needed: []int{1, 4}, B: &b})
		if err != nil {
			return err
		}
		defer sc.Close()
		if !sc.PushAgg(&core.AggPushdown{
			Keys: []expr.Node{expr.Slot(env, 0)},
			Aggs: []core.AggCall{{Name: "COUNT", Star: true}, {Name: "SUM", Arg: expr.Slot(env, 1)}},
		}) {
			return errors.New("scan refused the aggregate push-down")
		}
		groups, err := sc.DrainAgg()
		if err == nil && len(groups) == 0 {
			err = errors.New("push-down produced no group")
		}
		return err
	}
	if err := push(); err != nil { // learn
		return fmt.Errorf("core.aggpush_ns_row: %w", err)
	}
	return l.perRow("core.aggpush_ns_row", push)
}

// coreLayouts scans the same bytes cold as one file, as a glob of four files
// and as four byte-range partitions.
func (l *ladder) coreLayouts() error {
	nproc := l.e.nproc
	opts := withPar(core.InSituOptions(), nproc, sched.NewPool(nproc))
	plain, err := l.coldScan(l.plain(opts))
	if err != nil {
		return err
	}

	var paths []string
	quarter := (len(l.rows) + 3) / 4
	for i := 0; i < 4; i++ {
		lo, hi := min(i*quarter, len(l.rows)), min((i+1)*quarter, len(l.rows))
		p := filepath.Join(l.e.dir, fmt.Sprintf("ladder-shard-%d.csv", i))
		var buf bytes.Buffer
		for _, row := range l.rows[lo:hi] {
			buf.Write(row)
			buf.WriteByte('\n')
		}
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			return err
		}
		paths = append(paths, p)
	}
	sharded, err := l.coldScan(func() (core.RawTable, error) {
		return core.NewShardedTable(filepath.Join(l.e.dir, "ladder-shard-*.csv"), paths, l.sch, opts)
	})
	if err != nil {
		return fmt.Errorf("core.sharded_over_plain_ratio: %w", err)
	}
	l.m.put("core.sharded_over_plain_ratio", ratio(float64(sharded), float64(plain)), "ratio")

	partitioned, err := l.coldScan(func() (core.RawTable, error) {
		return core.NewPartitionedTable(l.path, l.sch, opts, int64(len(l.data)/4)+1)
	})
	if err != nil {
		return fmt.Errorf("core.partitioned_over_plain_ratio: %w", err)
	}
	l.m.put("core.partitioned_over_plain_ratio", ratio(float64(partitioned), float64(plain)), "ratio")
	return nil
}

// coreRefresh times Table.Refresh after each of five 2 000-row appends to a
// private copy of the file whose structures are warm.
func (l *ladder) coreRefresh() error {
	p := filepath.Join(l.e.dir, "ladder-append.csv")
	if err := os.WriteFile(p, l.data, 0o644); err != nil {
		return err
	}
	t, err := core.NewTable(p, l.sch, withPar(core.InSituOptions(), 1, nil))
	if err != nil {
		return err
	}
	if err := l.scanAll(t); err != nil {
		return err
	}
	block := bytes.Join(l.rows[:min(appendRows, len(l.rows))], []byte{'\n'})
	block = append(block, '\n')
	var ds []float64
	for i := 0; i < 5; i++ {
		if err := appendFile(p, block); err != nil {
			return err
		}
		t0 := time.Now()
		change, err := t.Refresh()
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if change.String() != "appended" {
			return fmt.Errorf("core.refresh_append_us: Refresh saw %q, want appended", change)
		}
		ds = append(ds, us(d))
		if _, err := drain(t, []int{3, 6}); err != nil { // extend the structures over the new rows
			return err
		}
	}
	l.m.put("core.refresh_append_us", median(ds), "us")
	return nil
}

// warmBatches serves attributes {3,6} of a warm table as engine batches.
func (l *ladder) warmTable() (*core.Table, error) {
	t, err := core.NewTable(l.path, l.sch, withPar(core.InSituOptions(), 1, nil))
	if err != nil {
		return nil, err
	}
	return t, l.scanAll(t)
}

// predicate compiles WHERE a3 < 250 AND a6 > 500 over the layout (a3, a6).
func predicate() (expr.Node, *expr.Env, error) {
	env := expr.NewEnv()
	env.Add("", "a3", value.KindInt)
	env.Add("", "a6", value.KindInt)
	sel, err := sql.Parse("SELECT a3 FROM t WHERE a3 < 250 AND a6 > 500")
	if err != nil {
		return nil, nil, err
	}
	n, err := expr.Compile(sel.Where, env)
	return n, env, err
}

func (l *ladder) expr() error {
	pred, env, err := predicate()
	if err != nil {
		return err
	}
	sel, err := sql.Parse("SELECT a3 + a6 FROM t")
	if err != nil {
		return err
	}
	sum, err := expr.Compile(sel.Items[0].Expr, env)
	if err != nil {
		return err
	}
	vecPred, ok1 := expr.CompileVec(pred)
	vecSum, ok2 := expr.CompileVec(sum)
	if !ok1 || !ok2 {
		return errors.New("expr: the ladder's expressions have no vector form")
	}

	// Materialise the two columns once, chunk by chunk, as the scan would
	// hand them to the evaluators.
	t, err := l.warmTable()
	if err != nil {
		return err
	}
	type chunk struct {
		cols [][]value.Value
		sel  []int32
	}
	var chunks []chunk
	var b metrics.Breakdown
	sc, err := t.NewScan(core.ScanSpec{Needed: []int{3, 6}, B: &b})
	if err != nil {
		return err
	}
	for {
		batch, ok, err := sc.NextBatch()
		if err != nil {
			sc.Close()
			return err
		}
		if !ok {
			break
		}
		c := chunk{sel: append([]int32(nil), batch.Sel...)}
		for _, col := range batch.Cols {
			c.cols = append(c.cols, append([]value.Value(nil), col...))
		}
		chunks = append(chunks, c)
	}
	if err := sc.Close(); err != nil {
		return err
	}

	if err := l.perRow("expr.filter_row_ns_row", func() error {
		row := make([]value.Value, 2)
		kept := 0
		for _, c := range chunks {
			for _, r := range c.sel {
				row[0], row[1] = c.cols[0][r], c.cols[1][r]
				v, err := pred.Eval(row)
				if err != nil {
					return err
				}
				if v.IsTrue() {
					kept++
				}
			}
		}
		if kept == 0 {
			return errors.New("row filter kept nothing")
		}
		return nil
	}); err != nil {
		return err
	}
	filterVec := func() error {
		var dst []int32
		kept := 0
		for _, c := range chunks {
			var err error
			if dst, err = vecPred.SelectTrue(c.cols, c.sel, dst[:0]); err != nil {
				return err
			}
			kept += len(dst)
		}
		if kept == 0 {
			return errors.New("vector filter kept nothing")
		}
		return nil
	}
	if err := l.perRow("expr.filter_vec_ns_row", filterVec); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := filterVec(); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	l.m.put("expr.filter_vec_allocs_per_row", float64(after.Mallocs-before.Mallocs)/l.n(), "1/row")

	return l.perRow("expr.project_vec_ns_row", func() error {
		out := make([]value.Value, chunkRows)
		for _, c := range chunks {
			if err := vecSum.EvalInto(c.cols, c.sel, out); err != nil {
				return err
			}
		}
		return nil
	})
}

func (l *ladder) engine() error {
	t, err := l.warmTable()
	if err != nil {
		return err
	}
	pred, env, err := predicate()
	if err != nil {
		return err
	}
	scan := func(b *metrics.Breakdown, needed ...int) (*engine.RawScan, error) {
		return engine.NewRawScan(t, core.ScanSpec{Needed: needed, B: b})
	}
	batches := func(op engine.BatchOperator) error {
		defer op.Close()
		for {
			_, ok, err := op.NextBatch()
			if err != nil || !ok {
				return err
			}
		}
	}
	if err := l.perRow("engine.filter_ns_row", func() error {
		var b metrics.Breakdown
		in, err := scan(&b, 3, 6)
		if err != nil {
			return err
		}
		return batches(engine.NewFilter(in, pred, &b))
	}); err != nil {
		return err
	}
	if err := l.perRow("engine.project_ns_row", func() error {
		var b metrics.Breakdown
		in, err := scan(&b, 3, 6)
		if err != nil {
			return err
		}
		return batches(engine.NewProject(in, []expr.Node{expr.Slot(env, 0), expr.Slot(env, 1)}, &b))
	}); err != nil {
		return err
	}

	genv := expr.NewEnv()
	genv.Add("", "a1", value.KindInt)
	genv.Add("", "a4", value.KindInt)
	hashAgg := func(pushdown bool) func() error {
		return func() error {
			var b metrics.Breakdown
			in, err := scan(&b, 1, 4)
			if err != nil {
				return err
			}
			agg := engine.NewHashAgg(in, []expr.Node{expr.Slot(genv, 0)},
				[]engine.AggSpec{{Name: "COUNT", Star: true}, {Name: "SUM", Arg: expr.Slot(genv, 1)}}, &b)
			defer agg.Close()
			if pushdown && !agg.TryPushdown() {
				return errors.New("HashAgg refused the push-down")
			}
			groups := 0
			for {
				_, ok, err := agg.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				groups++
			}
			if groups == 0 {
				return errors.New("HashAgg produced no group")
			}
			return nil
		}
	}
	if err := hashAgg(false)(); err != nil { // learn a1 and a4
		return err
	}
	if err := l.perRow("engine.hashagg_ns_row", hashAgg(false)); err != nil {
		return err
	}
	return l.perRow("engine.hashagg_pushdown_ns_row", hashAgg(true))
}

// frontend times parsing, preparing and building the plan of Q_sel.
func (l *ladder) frontend() error {
	t, err := core.NewTable(l.path, l.sch, core.InSituOptions())
	if err != nil {
		return err
	}
	cat := schema.NewCatalog()
	if err := cat.Register(&schema.Table{Name: "t", Schema: l.sch, Mode: schema.AccessInSitu, Path: l.path, Handle: t}); err != nil {
		return err
	}
	const n = 500
	perCall := func(name string, fn func() error) error {
		return l.nsPer(name, "us", n*1000, func() error { // ns ÷ (n × 1000) = µs per call
			for i := 0; i < n; i++ {
				if err := fn(); err != nil {
					return err
				}
			}
			return nil
		})
	}
	var sel *sql.Select
	if err := perCall("sql.parse_us", func() (err error) { sel, err = sql.Parse(sqlQsel); return }); err != nil {
		return err
	}
	var prep *planner.Prepared
	if err := perCall("planner.prepare_us", func() (err error) { prep, err = planner.Prepare(sel, cat); return }); err != nil {
		return err
	}
	return perCall("planner.build_us", func() error {
		var b metrics.Breakdown
		plan, err := prep.Build(context.Background(), &b, nil)
		if err != nil {
			return err
		}
		return plan.Close()
	})
}

func (l *ladder) sched() error {
	const tasks = 100_000
	nproc := l.e.nproc
	submit := func(queues int) func() error {
		return func() error {
			p := sched.NewPool(nproc)
			var done, submitters sync.WaitGroup
			done.Add(tasks)
			for q := 0; q < queues; q++ {
				submitters.Add(1)
				go func() {
					defer submitters.Done()
					queue := p.NewQueue()
					defer queue.Close()
					for i := 0; i < tasks/queues; i++ {
						queue.Submit(done.Done)
					}
					done.Wait() // Close drops unstarted tasks: wait for all before closing
				}()
			}
			for i := 0; i < tasks%queues; i++ {
				done.Done()
			}
			submitters.Wait()
			return nil
		}
	}
	for _, rung := range []struct {
		name   string
		queues int
	}{{"sched.submit_run_ns_task", 1}, {"sched.contended_ns_task", nproc}} {
		if err := l.nsPer(rung.name, "ns/task", tasks, submit(rung.queues)); err != nil {
			return err
		}
	}
	return nil
}

// runSlowLadder is the informational part of the full per-layer document:
// the load-first comparator and the paper's Fig. 3 sequence, single samples
// on the full-size ints10, too slow to repeat.
func runSlowLadder(cfg config) (metricSet, error) {
	e, err := newEnv(cfg, "slow")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	t := e.ints10()
	if err := t.generate(); err != nil {
		return nil, err
	}
	rows := float64(t.spec.Rows)
	m := metricSet{}

	// storage: bulk load, then a full heap scan of two attributes.
	var b metrics.Breakdown
	heap := filepath.Join(e.dir, "ints10.heap")
	t0 := time.Now()
	loaded, err := storage.LoadCSV(t.path, heap, t.spec.Schema(), storage.LoadOptions{CollectStats: true}, &b)
	if err != nil {
		return nil, err
	}
	m.put("storage.load_mb_s", float64(t.bytes)/1e6/time.Since(t0).Seconds(), "MB/s")
	want := make([]bool, 10)
	want[3], want[6] = true, true
	t0 = time.Now()
	seen := 0
	if err := loaded.Scan(want, &b, func(storage.RID, []value.Value) (bool, error) { seen++; return true, nil }); err != nil {
		loaded.Close()
		return nil, err
	}
	m.put("storage.heapscan_ns_row", float64(time.Since(t0))/rows, "ns/row")
	if fi, err := os.Stat(heap); err == nil {
		m.put("storage.bytes_per_raw_byte", float64(fi.Size())/float64(t.bytes), "ratio")
	}
	if err := loaded.Close(); err != nil {
		return nil, err
	}
	if float64(seen) != rows {
		return nil, fmt.Errorf("heap scan saw %d rows, want %.0f", seen, rows)
	}

	if err := fig3(e, t, m); err != nil {
		return nil, err
	}
	return m, nil
}

// fig3 runs the paper's ten-query sequence once per system. The monotone
// shape is asserted on counters, never on wall time.
func fig3(e *env, t *dataset, m metricSet) error {
	const q = "SELECT a3, a6 FROM t WHERE a3 < 250"
	const queries = 10
	var rawTotals, lastRaw nodb.QueryStats
	sequence := func(register func(db *nodb.DB) error, check func(i int, st nodb.QueryStats) error) ([]time.Duration, error) {
		db, err := e.openDB(0)
		if err != nil {
			return nil, err
		}
		defer db.Close()
		if err := register(db); err != nil {
			return nil, err
		}
		var took []time.Duration
		for i := 0; i < queries; i++ {
			t0 := time.Now()
			res, err := db.Query(q)
			if err != nil {
				return nil, err
			}
			took = append(took, time.Since(t0))
			if err := check(i, res.Stats); err != nil {
				return nil, err
			}
		}
		return took, nil
	}

	raw, err := sequence(
		func(db *nodb.DB) error { return db.RegisterRaw("t", t.path, t.spec.SchemaSpec(), nil) },
		func(i int, st nodb.QueryStats) error {
			if (i == 0) != (st.FieldsTokenized > 0) {
				return fmt.Errorf("fig3 raw: query %d tokenized %d fields", i+1, st.FieldsTokenized)
			}
			addStats(&rawTotals, st)
			lastRaw = st
			return nil
		})
	if err != nil {
		return err
	}
	var first int64
	baseline, err := sequence(
		func(db *nodb.DB) error { return db.RegisterBaseline("t", t.path, t.spec.SchemaSpec()) },
		func(i int, st nodb.QueryStats) error {
			if i == 0 {
				first = st.FieldsTokenized
			}
			if st.FieldsTokenized != first || first == 0 {
				return fmt.Errorf("fig3 baseline: query %d tokenized %d fields, query 1 %d", i+1, st.FieldsTokenized, first)
			}
			return nil
		})
	if err != nil {
		return err
	}
	var load time.Duration
	loaded, err := sequence(
		func(db *nodb.DB) (err error) {
			load, _, err = db.Load("t", t.path, t.spec.SchemaSpec(), nodb.ProfilePostgres)
			return err
		},
		func(int, nodb.QueryStats) error { return nil })
	if err != nil {
		return err
	}

	m.put("fig3.q1_ms", ms(raw[0]), "ms")
	m.put("fig3.q2_ms", ms(raw[1]), "ms")
	m.put("fig3.q10_ms", ms(raw[9]), "ms")
	m.put("fig3.baseline_q_ms", ms(medianDuration(baseline)), "ms")
	m.put("fig3.loaded_q_ms", ms(medianDuration(loaded)), "ms")
	m.put("fig3.load_s", load.Seconds(), "s")
	warm := medianDuration(raw[1:])
	m.put("fig3.warm_over_loaded_ratio", ratio(float64(warm), float64(medianDuration(loaded))), "ratio")
	// Queries after which load-first's total falls below in-situ's, taking
	// the medians as each system's per-query cost; 0 when it never does.
	breakeven := 0.0
	if perQ := float64(warm - medianDuration(loaded)); perQ > 0 {
		breakeven = float64(load-(raw[0]-warm)) / perQ
	}
	m.put("fig3.breakeven_queries", breakeven, "count")
	// Where the raw sequence's time went, summed over its ten queries and
	// over scan workers.
	m.put("fig3.raw_io_ms", ms(rawTotals.IO), "ms")
	m.put("fig3.raw_tokenizing_ms", ms(rawTotals.Tokenizing), "ms")
	m.put("fig3.raw_parsing_ms", ms(rawTotals.Parsing), "ms")
	m.put("fig3.raw_convert_ms", ms(rawTotals.Convert), "ms")
	m.put("fig3.raw_upkeep_ms", ms(rawTotals.NoDB), "ms")
	m.put("fig3.raw_processing_ms", ms(rawTotals.Processing), "ms")
	m.put("fig3.raw_bytes_read_q10", float64(lastRaw.BytesRead), "bytes")
	m.put("fig3.raw_map_jump_fields_q10", float64(lastRaw.MapJumpFields), "count")
	return nil
}
