// Command bench is the repository's benchmark: five seeded, closed-loop
// workloads driven through the public nodb API, every answer checked against
// a naive reference, seven end-to-end metrics per workload, and (with -trace)
// a per-layer ladder. See README.md in this directory.
//
//	go run ./cmd/bench                          all workloads, one JSON document
//	go run ./cmd/bench -trace                   the per-layer document, and trace.json
//	go run ./cmd/bench -workload W -trace 0|1   one run of one workload (what BENCHMARK.json's command does)
//	go run ./cmd/bench -compare OLD.json NEW.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// scratchDefault is where runs keep their raw files unless told otherwise:
// inside the working directory, because the benchmark may write nowhere else.
const scratchDefault = ".bench_build/data"

// options are the command-line settings beyond one run's config.
type options struct {
	config
	workload string
	runs     int    // full suite: runs per workload (their spread is recorded)
	out      string // full suite: also write the document here
	report   string // one workload: also write the full report here (the suite reads it)
	ladder   bool   // one traced workload: add the workload-independent per-layer numbers to the line
	compare  bool
	manifest string // BENCHMARK.json, for -compare's bounds
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process and print one result line")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input (data, append blocks)")
	fs.Float64Var(&o.seconds, "seconds", 12, "timed seconds per run")
	fs.Float64Var(&o.scale, "scale", 1, "data-set scale; 0.01 for a smoke test")
	fs.BoolVar(&o.trace, "trace", false, "per-layer run: spans, counters and the ladder (also accepts -trace 0|1)")
	fs.StringVar(&o.traceOut, "trace-out", "trace.json", "where the traced run writes its spans")
	fs.StringVar(&o.scratch, "scratch", scratchDefault, "directory for generated raw files (kept inside the working directory)")
	fs.IntVar(&o.runs, "runs", 3, "full suite: runs per workload")
	fs.StringVar(&o.out, "out", "", "full suite: also write the JSON document to this file")
	fs.StringVar(&o.report, "report", "", "one workload: also write the full report to this file")
	fs.BoolVar(&o.ladder, "ladder", true, "one traced workload: also run the solo statement classes and the ladder, so that the line carries every per-layer metric (the suite runs them once, not per workload)")
	fs.BoolVar(&o.compare, "compare", false, "compare two full-suite documents: -compare OLD.json NEW.json")
	fs.StringVar(&o.manifest, "manifest", "BENCHMARK.json", "where -compare reads the regression bounds")
	fs.BoolVar(&o.plantWrong, "plant-wrong", false, "self-test: corrupt one reference expectation; the run must exit non-zero")
	if err := fs.Parse(traceValue(args)); err != nil {
		return 2
	}
	if o.seconds <= 0 || o.scale <= 0 || o.runs < 1 {
		fmt.Fprintln(stderr, "bench: -seconds, -scale and -runs must be positive")
		return 2
	}

	var err error
	failed := false
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: OLD.json NEW.json")
			return 2
		}
		failed, err = compare(stdout, o.manifest, fs.Arg(0), fs.Arg(1))
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case o.workload != "":
		failed, err = oneWorkload(o, stdout, stderr)
	default:
		failed, err = suite(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// traceValue folds the driver's "--trace 0" / "--trace 1" into the boolean
// flag's "-trace=false" / "-trace=true", so that a bare -trace works too.
func traceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "false":
				out = append(out, "-trace=false")
				i++
				continue
			case "1", "true":
				out = append(out, "-trace=true")
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// resultLine is the last line of a one-workload run: exactly these keys.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// oneWorkload runs one workload here and prints its result line: the
// end-to-end metrics with tracing off, the per-layer metrics with it on.
func oneWorkload(o options, stdout, stderr io.Writer) (failed bool, err error) {
	def, ok := findWorkload(o.workload)
	if !ok {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	rep, err := runWorkload(o.config, def)
	if err != nil {
		return false, fmt.Errorf("%s: %w", def.name, err)
	}
	if rep.Failed > 0 {
		fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed; first: %s\n", def.name, rep.Failed, rep.Attempted, rep.FirstFailure)
	}
	if o.report != "" {
		buf, err := json.Marshal(rep)
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(o.report, buf, 0o644); err != nil {
			return false, fmt.Errorf("report: %w", err)
		}
	}
	line := resultLine{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: metricSet{}}
	for name, m := range rep.Metrics {
		if name != "failed_ratio" { // carried by the attempted and failed keys
			line.Metrics[name] = m
		}
	}
	if o.trace && o.ladder {
		layers, err := layerRun(o.config)
		if err != nil {
			return false, err
		}
		line.Metrics.merge(layers)
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	return rep.Failed > 0, nil
}

// header says what a document was measured on and how.
type header struct {
	Commit      string           `json:"commit"`
	GoVersion   string           `json:"go_version"`
	NProc       int              `json:"nproc"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	Seed        int64            `json:"seed"`
	Scale       float64          `json:"scale"`
	Seconds     float64          `json:"seconds"`
	Runs        int              `json:"runs"`
	Trace       bool             `json:"trace"`
	FileBytes   map[string]int64 `json:"file_bytes"`
	Environment string           `json:"environment"`
}

const environment = "closed loop; one client per workload except concurrent_groupby (min(nproc,4) clients); " +
	"GOMAXPROCS=min(nproc,4); each run in its own process; raw files in a scratch directory and therefore in the " +
	"OS page cache: latencies are the sandbox's, not a device's; no fsync anywhere"

// suiteMetric is one metric of one workload across the suite's runs.
type suiteMetric struct {
	Value  float64   `json:"value"` // median of Runs
	Unit   string    `json:"unit"`
	Spread float64   `json:"spread"` // run-to-run, as a share of the median
	Runs   []float64 `json:"runs"`
}

// suiteMetrics collects one workload's metrics run by run.
type suiteMetrics map[string]suiteMetric

func (sm suiteMetrics) addRun(run metricSet) {
	for name, m := range run {
		acc := sm[name]
		acc.Unit = m.Unit
		acc.Runs = append(acc.Runs, m.Value)
		acc.Value, acc.Spread = median(acc.Runs), spread(acc.Runs)
		sm[name] = acc
	}
}

type suiteWorkload struct {
	Name            string       `json:"name"`
	Why             string       `json:"why"`
	Clients         int          `json:"clients"`
	Samples         []int        `json:"samples"`          // timed rounds, per run
	TailPercentiles []int        `json:"tail_percentiles"` // percentile round_tail_ms used, per run
	Attempted       int64        `json:"attempted"`
	Failed          int64        `json:"failed"`
	Noisy           bool         `json:"noisy"`             // some run's foreign CPU share exceeded a tenth
	ForeignCPU      []float64    `json:"foreign_cpu_share"` // per run
	Ceiling         [][2]float64 `json:"ceiling_before_after_mb_s"`
	Metrics         suiteMetrics `json:"metrics"`
}

type document struct {
	Header    header          `json:"header"`
	Workloads []suiteWorkload `json:"workloads"`
	Ladder    suiteMetrics    `json:"ladder,omitempty"` // -trace: solo classes and direct layer calls, Runs times
	Slow      metricSet       `json:"informational,omitempty"`
}

// suite runs every workload, each run in its own child process, and prints
// one document.
func suite(o options, stdout, stderr io.Writer) (failed bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	nproc := min(runtime.NumCPU(), 4)
	doc := document{Header: header{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: nproc,
		Seed: o.seed, Scale: o.scale, Seconds: o.seconds, Runs: o.runs, Trace: o.trace,
		FileBytes: map[string]int64{}, Environment: environment,
	}}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return false, err
	}
	reportPath := filepath.Join(o.scratch, fmt.Sprintf("report-%d.json", os.Getpid()))
	defer os.Remove(reportPath)
	// Every traced child writes its spans to childTrace; the suite collects
	// the last run of each workload into one trace.json.
	childTrace := filepath.Join(o.scratch, fmt.Sprintf("trace-%d.json", os.Getpid()))
	defer os.Remove(childTrace)
	traces := traceFile{}

	for _, def := range workloadDefs {
		sw := suiteWorkload{Name: def.name, Why: def.why, Metrics: suiteMetrics{}}
		for r := 0; r < o.runs; r++ {
			fmt.Fprintf(stderr, "bench: %s run %d/%d\n", def.name, r+1, o.runs)
			cmd := exec.Command(self, "-workload", def.name,
				"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-scale", fmt.Sprint(o.scale),
				fmt.Sprintf("-trace=%v", o.trace), "-ladder=false", "-trace-out", childTrace, "-scratch", o.scratch, "-report", reportPath)
			cmd.Stderr = stderr
			runErr := cmd.Run() // a run with failed operations exits 1 and still reports
			buf, err := os.ReadFile(reportPath)
			if err != nil {
				return false, fmt.Errorf("%s: %v (child: %v)", def.name, err, runErr)
			}
			os.Remove(reportPath)
			var rep workloadReport
			if err := json.Unmarshal(buf, &rep); err != nil {
				return false, fmt.Errorf("%s: report: %w", def.name, err)
			}
			if o.trace {
				var one traceFile
				if err := readJSON(childTrace, &one); err != nil {
					return false, err
				}
				traces[def.name] = one[def.name]
			}
			sw.Clients = rep.Clients
			sw.Samples = append(sw.Samples, rep.Samples)
			sw.TailPercentiles = append(sw.TailPercentiles, rep.TailPercentile)
			sw.Attempted += rep.Attempted
			sw.Failed += rep.Failed
			sw.Noisy = sw.Noisy || rep.Noisy
			sw.ForeignCPU = append(sw.ForeignCPU, rep.ForeignCPU)
			sw.Ceiling = append(sw.Ceiling, [2]float64{rep.CeilingBefore, rep.CeilingAfter})
			for name, n := range rep.FileBytes {
				doc.Header.FileBytes[name] = n
			}
			sw.Metrics.addRun(rep.Metrics)
			if rep.Failed > 0 {
				failed = true
				fmt.Fprintf(stderr, "bench: %s: first failure: %s\n", def.name, rep.FirstFailure)
			}
		}
		doc.Workloads = append(doc.Workloads, sw)
	}
	if o.trace {
		doc.Ladder = suiteMetrics{}
		for r := 0; r < o.runs; r++ {
			fmt.Fprintf(stderr, "bench: solo classes and ladder, run %d/%d\n", r+1, o.runs)
			layers, err := layerRun(o.config)
			if err != nil {
				return false, err
			}
			doc.Ladder.addRun(layers)
		}
		if doc.Slow, err = runSlowLadder(o.config); err != nil {
			return false, err
		}
		if err := writeTraceFile(o.traceOut, traces); err != nil {
			return false, err
		}
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	if o.out != "" {
		if err := os.WriteFile(o.out, append(buf, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return failed, nil
}

// commit is the checkout's revision, or "unknown" outside a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
