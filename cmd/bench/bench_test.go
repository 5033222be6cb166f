package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the command: re-executed with
// BENCH_TEST_AS_MAIN=1 it runs main's logic, so tests can see exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_AS_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smoke is the configuration every in-process test run uses: 1 % of the data,
// a fraction of a second of timing, scratch files in the test's own directory.
func smoke(t *testing.T, trace bool) config {
	return config{seed: 7, seconds: 0.3, scale: 0.01, trace: trace,
		traceOut: filepath.Join(t.TempDir(), "trace.json"), scratch: t.TempDir()}
}

// readManifest reads BENCHMARK.json at the repository root.
func readManifest(t *testing.T) manifest {
	t.Helper()
	var b manifest
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestManifestAgreesWithTheCode(t *testing.T) {
	b := readManifest(t)
	if strings.Join(b.Command, " ") != "bash cmd/bench/run.sh" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("command = %v, run_seconds = %d", b.Command, b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/bench" {
		t.Errorf("paths = %v, want [cmd/bench]", b.Paths)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloadDefs[i].name, workloadDefs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	// The bounds this benchmark was accepted with (README, "Measured spread"):
	// a later change may tighten one, never widen it.
	accepted := map[string]float64{"setup_s": 0.25, "round_p50_ms": 0.15, "round_tail_ms": 0.20,
		"scan_mb_per_s": 0.15, "peak_rss_mb": 0.10, "adaptive_bytes_per_raw_byte": 0.02}
	haveSetup := false
	for _, m := range b.EndToEnd {
		haveSetup = haveSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if limit, ok := accepted[m.Name]; !ok || m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, limit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	if !haveSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	seen := map[string]bool{}
	for _, w := range b.Workloads {
		seen[w.Name] = true
	}
	for _, m := range b.EndToEnd {
		seen[m.Name] = true
	}
	for _, m := range b.PerLayer {
		if seen[m.Name] {
			t.Errorf("name %s is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for name := range seen {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
	}
}

func checkMetric(t *testing.T, workload, name string, m metric, ok bool) {
	t.Helper()
	switch {
	case !ok:
		t.Errorf("%s: metric %s was not emitted", workload, name)
	case m.Unit == "":
		t.Errorf("%s: metric %s has no unit", workload, name)
	case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
		t.Errorf("%s: metric %s = %v", workload, name, m.Value)
	}
}

// TestEndToEndSmoke runs all five workloads untraced at 1 % scale and checks
// that each emits every end-to-end metric of BENCHMARK.json, once (metricSet
// panics on a second put), with its unit and a finite, non-zero value.
func TestEndToEndSmoke(t *testing.T) {
	b := readManifest(t)
	for _, def := range workloadDefs {
		rep, err := runWorkload(smoke(t, false), def)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %s", def.name, rep.Failed, rep.Attempted, rep.FirstFailure)
		}
		for _, m := range b.EndToEnd {
			got, ok := rep.Metrics[m.Name]
			checkMetric(t, def.name, m.Name, got, ok)
			if ok && (got.Unit != m.Unit || got.Value <= 0) {
				t.Errorf("%s: %s = %v %s, want a positive value in %s", def.name, m.Name, got.Value, got.Unit, m.Unit)
			}
		}
		if got := rep.Metrics["failed_ratio"]; got.Value != 0 || got.Unit != "ratio" {
			t.Errorf("%s: failed_ratio = %+v", def.name, got)
		}
		if len(rep.Metrics) != len(b.EndToEnd)+1 {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d end-to-end and failed_ratio", def.name, len(rep.Metrics), len(b.EndToEnd))
		}
	}
}

// TestAppendGrowsByOneBlockPerRound drives append_requery by hand: every
// round must make exactly 2 000 more rows visible.
func TestAppendGrowsByOneBlockPerRound(t *testing.T) {
	cfg := smoke(t, false)
	e := &env{cfg: cfg, dir: t.TempDir(), nproc: 2}
	w := newAppendRequery(e).(*appendRequery)
	c := newClient(e, 0)
	if err := w.generate(); err != nil {
		t.Fatal(err)
	}
	if err := w.reference(); err != nil {
		t.Fatal(err)
	}
	if err := w.open(c); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	count := func() int64 {
		res, err := w.db.Query("SELECT count(*) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].(int64)
	}
	before := count()
	if before != int64(w.tables[0].spec.Rows) {
		t.Fatalf("fresh file has %d rows, want %d", before, w.tables[0].spec.Rows)
	}
	for r := 0; r < 3; r++ {
		w.round(c, r)
		after := count()
		if after-before != appendRows {
			t.Errorf("round %d: count grew by %d, want %d", r, after-before, appendRows)
		}
		before = after
	}
	if c.failed != 0 {
		t.Errorf("%d operations failed: %s", c.failed, c.firstFail)
	}
}

// TestExitCode re-executes the test binary as the command: a healthy run
// exits 0 with "correct": true, a planted wrong expectation exits 1 with
// "correct": false and every timed round counted as failed. The planted
// workloads are the three kinds of instance: cold (its snapshot round fails
// too), steady, and append_requery (which resets its expectation at set-up).
func TestExitCode(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workload string
		extra    []string
		code     int
		correct  bool
	}{
		{"healthy", "warm_filter_project", nil, 0, true},
		{"planted_cold", "cold_first_query", []string{"-plant-wrong"}, 1, false},
		{"planted_warm", "warm_filter_project", []string{"-plant-wrong"}, 1, false},
		{"planted_append", "append_requery", []string{"-plant-wrong"}, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"--workload", tc.workload, "--seed", "3", "--seconds", "0.2",
				"--scale", "0.01", "--scratch", t.TempDir(), "--trace", "0"}, tc.extra...)
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), "BENCH_TEST_AS_MAIN=1")
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			err := cmd.Run()
			code := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.code {
				t.Errorf("exit code %d, want %d", code, tc.code)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
			}
			if line.Correct != tc.correct || (line.Failed == 0) != tc.correct || line.Attempted < 1 {
				t.Errorf("result line %+v, want correct=%v", line, tc.correct)
			}
			if !tc.correct && line.Failed < minRounds {
				t.Errorf("%d operations failed, want at least the %d timed rounds", line.Failed, minRounds)
			}
		})
	}
}

func TestTraceValue(t *testing.T) {
	got := traceValue([]string{"--workload", "w", "--trace", "0", "-trace", "1", "-trace"})
	want := []string{"--workload", "w", "-trace=false", "-trace=true", "-trace"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("traceValue = %v, want %v", got, want)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, pct int }{{30, 66}, {40, 75}, {300, 96}, {12, 50}} {
		ds := make([]time.Duration, tc.n)
		for i := range ds {
			ds[i] = time.Duration(tc.n - i) // descending: tail must sort
		}
		d, pct := tail(ds)
		if pct != tc.pct {
			t.Errorf("n=%d: percentile %d, want %d", tc.n, pct, tc.pct)
		}
		if tc.n >= 20 && int(d) != tc.n-10 {
			t.Errorf("n=%d: tail %d, want the sample with ten beyond it (%d)", tc.n, d, tc.n-10)
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		worse, bound, noise float64
		noisy               bool
		want                string
	}{
		{0.03, 0.07, 0.01, false, "same"},
		{0.09, 0.07, 0.01, false, "worse"},
		{-0.09, 0.07, 0.01, false, "better"},
		{0.09, 0.07, 0.12, false, "unresolved"}, // moved less than the noise, and the noise exceeds the bound
		{0.20, 0.07, 0.12, false, "worse"},      // moved more than both
		{0.01, 0.07, 0.01, true, "unresolved"},  // something else used the CPUs during a run
	} {
		if got := verdict(tc.worse, tc.bound, tc.noise, tc.noisy); got != tc.want {
			t.Errorf("verdict(%v, %v, %v, %v) = %s, want %s", tc.worse, tc.bound, tc.noise, tc.noisy, got, tc.want)
		}
	}
}

// TestCompare builds two documents that differ in one metric and checks the
// table and the exit decision.
func TestCompare(t *testing.T) {
	b := readManifest(t)
	mk := func(p50 float64) document {
		var d document
		for _, def := range workloadDefs {
			sw := suiteWorkload{Name: def.name, Metrics: map[string]suiteMetric{"failed_ratio": {Unit: "ratio"}}}
			for _, m := range b.EndToEnd {
				sw.Metrics[m.Name] = suiteMetric{Value: 100, Unit: m.Unit, Spread: 0.01}
			}
			sw.Metrics["round_p50_ms"] = suiteMetric{Value: p50, Unit: "ms", Spread: 0.01}
			d.Workloads = append(d.Workloads, sw)
		}
		return d
	}
	dir := t.TempDir()
	write := func(name string, d document) string {
		buf, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	manifest := filepath.Join("..", "..", "BENCHMARK.json")
	a, same, slow := write("a.json", mk(100)), write("same.json", mk(101)), write("slow.json", mk(150))

	var out bytes.Buffer
	worse, err := compare(&out, manifest, a, same)
	if err != nil || worse {
		t.Errorf("compare(a, same) = %v, %v; want no regression\n%s", worse, err, out.String())
	}
	if strings.Contains(out.String(), "worse") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("compare(a, same) printed a worse or unresolved row:\n%s", out.String())
	}
	out.Reset()
	worse, err = compare(&out, manifest, a, slow)
	if err != nil || !worse {
		t.Errorf("compare(a, slow) = %v, %v; want a regression\n%s", worse, err, out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+len(workloadDefs)*(len(b.EndToEnd)+1) {
		t.Errorf("compare printed %d lines, want a header and one per workload and metric:\n%s", rows, out.String())
	}
}
