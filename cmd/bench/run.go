package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"nodb"
)

// config is what the command line decides about one workload run.
type config struct {
	seed       int64
	seconds    float64 // timed seconds (the traced run spends a quarter untraced and a quarter traced)
	scale      float64 // 1 = the sizes in client.go; 0.01 for the smoke test
	trace      bool
	traceOut   string // where the traced run writes its spans
	scratch    string // parent of the run's scratch directory
	plantWrong bool   // self-test: corrupt one expectation, so the run must fail
}

// env is the state of one workload run.
type env struct {
	cfg   config
	dir   string  // scratch directory holding the raw files
	nproc int     // client and worker bound: min(NumCPU, 4)
	tr    *tracer // non-nil only while spans are being recorded
	obs   observer
}

// A run sets up at least minSetups times, and until its set-ups have taken a
// third of the timed seconds; setup_s is their median. A short set-up
// (cold_first_query only generates a file) is the one that write-back of the
// page cache moves most, and so gets the most samples.
const minSetups = 3

// minRounds keeps a phase from ending without a sample at tiny -seconds.
const minRounds = 3

// workloadReport is everything one run of one workload produced. The
// driver-facing line is cut from it; the full-suite document keeps it all.
type workloadReport struct {
	Name           string  `json:"name"`
	Clients        int     `json:"clients"`
	Samples        int     `json:"samples"` // timed rounds
	TailPercentile int     `json:"tail_percentile"`
	Attempted      int64   `json:"attempted"`
	Failed         int64   `json:"failed"`
	FirstFailure   string  `json:"first_failure,omitempty"`
	CeilingBefore  float64 `json:"ceiling_before_mb_s"`
	CeilingAfter   float64 `json:"ceiling_after_mb_s"`
	// ForeignCPU is the share of the machine's CPU capacity that went to
	// anything but this process while it measured; above a tenth the run is
	// Noisy.
	ForeignCPU float64          `json:"foreign_cpu_share"`
	Noisy      bool             `json:"noisy"`
	FileBytes  map[string]int64 `json:"file_bytes"`
	Metrics    metricSet        `json:"metrics"`

	obs *observer // the traced run's per-round observations, for the tests
}

// phase is the outcome of one timed phase.
type phase struct {
	samples   []time.Duration
	wall      time.Duration
	attempted int64
	failed    int64
	firstFail string
	totals    queryTotals
}

func (p *phase) absorb(c *client) {
	p.samples = append(p.samples, c.samples...)
	p.attempted += c.attempted
	p.failed += c.failed
	if p.firstFail == "" {
		p.firstFail = c.firstFail
	}
	p.totals.add(&c.totals)
}

// addCounts adds another phase's operation counts.
func (p *phase) addCounts(o *phase) {
	p.attempted += o.attempted
	p.failed += o.failed
	if p.firstFail == "" {
		p.firstFail = o.firstFail
	}
}

// measure runs the workload's clients in a closed loop for d: every client
// starts its next round only when the previous one has fully returned, and a
// round that has started always finishes.
func measure(e *env, inst instance, d time.Duration) *phase {
	p := &phase{}
	clients := make([]*client, inst.clients())
	for i := range clients {
		clients[i] = newClient(e, i)
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
				c.samples = append(c.samples, inst.round(c, r))
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	for _, c := range clients {
		p.absorb(c)
	}
	return p
}

// newEnv bounds the process to min(NumCPU, 4) processors and makes a scratch
// directory for one run; the caller removes e.dir when the run ends.
func newEnv(cfg config, name string) (*env, error) {
	nproc := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(nproc)
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, fmt.Errorf("scratch directory: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.scratch, name+"-")
	if err != nil {
		return nil, fmt.Errorf("scratch directory: %w", err)
	}
	return &env{cfg: cfg, dir: dir, nproc: nproc}, nil
}

// runWorkload is one run of one workload in this process.
func runWorkload(cfg config, def workloadDef) (rep *workloadReport, err error) {
	e, err := newEnv(cfg, def.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	inst := def.new(e)
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	rep = &workloadReport{Name: def.name, Clients: inst.clients(), FileBytes: map[string]int64{}, Metrics: metricSet{}}
	setup := newClient(e, 0)
	tr := newTracer()
	if cfg.trace {
		e.tr = tr // set-up spans carry round -1
	}

	// Set-up, several times over so that its median is steady; the traced
	// run reports no setup_s and sets up once.
	var setupTimes []float64
	for i, spent := 0, 0.0; i == 0 || !cfg.trace && (i < minSetups || spent < cfg.seconds/3); i++ {
		if i > 0 {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := inst.generate(); err != nil {
			return nil, err
		}
		took := time.Since(t0)
		if i == 0 {
			if err := inst.reference(); err != nil {
				return nil, err
			}
		}
		t0 = time.Now()
		if err := inst.open(setup); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, (took + time.Since(t0)).Seconds())
		spent += setupTimes[i]
	}
	if cfg.plantWrong {
		// After the last set-up: append_requery resets its expectation
		// whenever it regenerates its file.
		inst.queries()[0].want.rows++
	}
	for _, d := range inst.files() {
		rep.FileBytes[d.name] = d.bytes
	}
	mainFile := inst.files()[0].path

	if rep.CeilingBefore, err = newlineCountMBs(mainFile); err != nil {
		return nil, err
	}
	cpuBefore, err := sampleCPU()
	if err != nil {
		return nil, err
	}
	var timed *phase
	if cfg.trace {
		timed, err = tracedRun(e, inst, tr, rep)
	} else {
		timed = measure(e, inst, time.Duration(cfg.seconds*float64(time.Second)))
		err = endToEnd(inst, setup, timed, setupTimes, rep)
	}
	if err != nil {
		return nil, err
	}
	cpuAfter, err := sampleCPU()
	if err != nil {
		return nil, err
	}
	rep.ForeignCPU = foreignCPUShare(cpuBefore, cpuAfter)
	rep.Noisy = rep.ForeignCPU > 0.1
	if rep.CeilingAfter, err = newlineCountMBs(mainFile); err != nil {
		return nil, err
	}

	rep.Samples = len(timed.samples)
	rep.Attempted = setup.attempted + timed.attempted
	rep.Failed = setup.failed + timed.failed
	rep.FirstFailure = setup.firstFail
	if rep.FirstFailure == "" {
		rep.FirstFailure = timed.firstFail
	}
	if cfg.trace {
		rep.Metrics.put("ceiling.newline_count_mb_s", (rep.CeilingBefore+rep.CeilingAfter)/2, "MB/s")
	} else {
		rep.Metrics.put("failed_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")
	}
	rep.obs = &e.obs
	return rep, nil
}

// endToEnd fills in the metrics a user of the system would see.
func endToEnd(inst instance, c *client, p *phase, setupTimes []float64, rep *workloadReport) error {
	snap, err := inst.snapshot(c)
	if err != nil {
		return err
	}
	var raw int64
	for _, d := range inst.files() {
		raw += d.bytes
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	tailD, pct := tail(p.samples)
	rep.TailPercentile = pct
	m := rep.Metrics
	m.put("setup_s", median(setupTimes), "s")
	m.put("round_p50_ms", ms(medianDuration(p.samples)), "ms")
	m.put("round_tail_ms", ms(tailD), "ms")
	m.put("scan_mb_per_s", float64(p.totals.rawBytes)/1e6/p.wall.Seconds(), "MB/s")
	m.put("peak_rss_mb", rss, "MB")
	m.put("adaptive_bytes_per_raw_byte", ratio(float64(snap.usedBytes), float64(raw)), "ratio")
	return nil
}

// tracedRun is the workload's per-layer run: a quarter of the time untraced
// and a quarter traced (their medians give the tracing overhead), then the
// workload's counters. What does not depend on the workload is layerRun's.
func tracedRun(e *env, inst instance, tr *tracer, rep *workloadReport) (*phase, error) {
	// Untraced, traced, untraced: the untraced eighths on either side of the
	// traced quarter keep warm-up and drift out of the overhead ratio.
	eighth := time.Duration(e.cfg.seconds / 8 * float64(time.Second))
	e.tr = nil
	plain := measure(e, inst, eighth)

	var before, after runtime.MemStats
	poolBefore := inst.pool()
	runtime.ReadMemStats(&before)
	e.tr = tr
	traced := measure(e, inst, 2*eighth)
	e.tr = nil
	runtime.ReadMemStats(&after)
	poolAfter := inst.pool()

	second := measure(e, inst, eighth)
	plain.samples = append(plain.samples, second.samples...)
	plain.addCounts(second)

	m := rep.Metrics
	m.put("trace.overhead_ratio", ratio(float64(medianDuration(traced.samples)), float64(medianDuration(plain.samples))), "ratio")
	workloadLayers(m, e, tr, traced, &before, &after, poolBefore, poolAfter)
	if err := tr.write(e.cfg.traceOut, rep.Name); err != nil {
		return nil, err
	}

	traced.addCounts(plain) // the report counts every operation; its samples stay the traced rounds
	return traced, nil
}

// workloadLayers derives the per-layer numbers of the traced phase: span
// medians for the root API, QueryStats sums for the layers below it.
func workloadLayers(m metricSet, e *env, tr *tracer, p *phase, before, after *runtime.MemStats, poolBefore, poolAfter nodb.SchedulerStats) {
	rounds := float64(len(p.samples))
	st := p.totals.stats
	perRound := func(v float64) float64 { return ratio(v, rounds) }

	m.put("rawfile.bytes_read_per_round", perRound(float64(st.BytesRead)), "bytes")
	m.put("rawfile.io_retries_per_round", perRound(float64(st.IORetries)), "count")

	located := float64(st.MapJumpFields + st.MapNearFields + st.FieldsTokenized)
	m.put("posmap.hit_ratio", ratio(float64(st.MapJumpFields), located), "ratio")
	m.put("posmap.near_ratio", ratio(float64(st.MapNearFields), located), "ratio")
	m.put("rawcache.hit_ratio", ratio(float64(st.CacheHitFields), float64(st.CacheHitFields+st.FieldsConverted)), "ratio")
	var ev structStats
	for _, r := range e.obs.rounds {
		ev.posEvict += r.posEvict
		ev.cacheEvict += r.cacheEvict
		ev.cacheReject += r.cacheReject
	}
	m.put("posmap.evictions_per_round", perRound(float64(ev.posEvict)), "count")
	m.put("rawcache.evictions_per_round", perRound(float64(ev.cacheEvict)), "count")
	m.put("rawcache.rejected_per_round", perRound(float64(ev.cacheReject)), "count")

	m.put("core.fields_tokenized_per_row", ratio(float64(st.FieldsTokenized), float64(st.RowsScanned)), "ratio")
	m.put("core.fields_converted_per_cell_returned", ratio(float64(st.FieldsConverted), float64(p.totals.cells)), "ratio")

	m.put("sched.tasks_per_round", perRound(float64(st.SchedTasks)), "count")
	m.put("sched.steals_per_round", perRound(float64(poolAfter.Steals-poolBefore.Steals)), "count")
	m.put("sched.max_depth", float64(poolAfter.MaxDepth), "count")

	m.put("nodb.plan_cache_hit_ratio", ratio(float64(st.PlanCacheHits), float64(p.totals.queries)), "ratio")
	m.put("nodb.open_register_ms", tr.openRegisterMS(), "ms")
	m.put("nodb.prepare_us", median(tr.durations("prepare"))/1e3, "us")
	m.put("nodb.execute_ms", median(tr.durations("execute"))/1e6, "ms")
	m.put("nodb.first_row_ms", median(tr.durations("first_row"))/1e6, "ms")
	m.put("nodb.drain_ns_row", ratio(sum(tr.durations("drain")), float64(p.totals.rowsReturned)), "ns/row")
	m.put("nodb.close_us", median(tr.durations("close"))/1e3, "us")
	m.put("nodb.alloc_bytes_per_row", ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(st.RowsScanned)), "bytes/row")
	m.put("nodb.allocs_per_row", ratio(float64(after.Mallocs-before.Mallocs), float64(st.RowsScanned)), "1/row")
	m.put("nodb.gc_pause_ms_per_round", perRound(float64(after.PauseTotalNs-before.PauseTotalNs)/1e6), "ms")

	// The Fig. 3 categories are summed over scan workers, so with a
	// parallel scan they can exceed the round's wall time.
	m.put("nodb.io_ms", perRound(ms(st.IO)), "ms")
	m.put("nodb.tokenizing_ms", perRound(ms(st.Tokenizing)), "ms")
	m.put("nodb.parsing_ms", perRound(ms(st.Parsing)), "ms")
	m.put("nodb.convert_ms", perRound(ms(st.Convert)), "ms")
	m.put("nodb.upkeep_ms", perRound(ms(st.NoDB)), "ms")
	m.put("nodb.processing_ms", perRound(ms(st.Processing)), "ms")
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// layerRun measures the per-layer numbers that do not depend on the workload:
// the solo statement classes, then the ladder of direct layer calls.
func layerRun(cfg config) (metricSet, error) {
	e, err := newEnv(cfg, "layers")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	out, err := soloClasses(e)
	if err != nil {
		return nil, err
	}
	ladder, err := runLadder(e)
	if err != nil {
		return nil, err
	}
	out.merge(ladder)
	return out, nil
}

// soloClasses measures each statement class alone on a warm database: one
// client, the full-size tables, one warm-up pass, then the median of three.
func soloClasses(e *env) (metricSet, error) {
	names := map[string]string{
		"w1": "nodb.w1_count_filter_ms", "w2": "nodb.w2_filter_project_ms", "w3": "nodb.w3_sum_ms",
		"w4": "nodb.w4_arith_ms", "w5": "nodb.w5_mixed_filter_ms",
		"g1": "nodb.g1_groupby_int_ms", "g2": "nodb.g2_groupby_text_ms", "g3": "nodb.g3_groupby_zipf_ms",
	}
	w := newSoloClasses(e)
	c := newClient(e, 0)
	if err := w.generate(); err != nil {
		return nil, err
	}
	if err := w.reference(); err != nil {
		return nil, err
	}
	if err := w.open(c); err != nil {
		return nil, err
	}
	out := metricSet{}
	for _, q := range w.qs {
		var took []time.Duration
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			c.run(w.db, q, -1, -1)
			took = append(took, time.Since(t0))
		}
		out.put(names[q.name], ms(medianDuration(took)), "ms")
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	if c.failed > 0 {
		return nil, fmt.Errorf("solo classes: %s", c.firstFail)
	}
	return out, nil
}
