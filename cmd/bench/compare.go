package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// manifest is BENCHMARK.json; -compare reads the bounds from it, the tests
// check all of it against the code.
type manifest struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []manifestMetric             `json:"end_to_end"`
	PerLayer   []manifestMetric             `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges one (workload, metric) pair. worse is how far new is on the
// wrong side of old, as a share of old (negative when it improved); noise is
// the larger of the two recorded run-to-run spreads. A move counts only when
// it exceeds both the bound and the noise; a pair that did not move is
// "same" only when the noise itself is within the bound, and "unresolved"
// otherwise (or when either side's run was flagged noisy).
func verdict(worse, bound, noise float64, noisy bool) string {
	limit := math.Max(bound, noise)
	switch {
	case worse > limit:
		return "worse"
	case -worse > limit:
		return "better"
	case noisy || noise > bound:
		return "unresolved"
	default:
		return "same"
	}
}

// compare prints one row per (workload, end-to-end metric) and reports
// whether any row is worse.
func compare(w io.Writer, manifestPath, oldPath, newPath string) (anyWorse bool, err error) {
	var man manifest
	if err := readJSON(manifestPath, &man); err != nil {
		return false, err
	}
	var oldDoc, newDoc document
	if err := readJSON(oldPath, &oldDoc); err != nil {
		return false, err
	}
	if err := readJSON(newPath, &newDoc); err != nil {
		return false, err
	}
	newByName := map[string]suiteWorkload{}
	for _, sw := range newDoc.Workloads {
		newByName[sw.Name] = sw
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tdelta\tbound\tspread\tverdict")
	row := func(wl, name string, o, n float64, unit string, worse, bound, noise float64, v string) {
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
			wl, name, o, n, unit, 100*ratio(n-o, o), 100*bound, 100*noise, v)
		anyWorse = anyWorse || v == "worse"
	}
	for _, ow := range oldDoc.Workloads {
		nw, ok := newByName[ow.Name]
		if !ok {
			return false, fmt.Errorf("%s has no workload %s", newPath, ow.Name)
		}
		for _, def := range man.EndToEnd {
			om, ok1 := ow.Metrics[def.Name]
			nm, ok2 := nw.Metrics[def.Name]
			if !ok1 || !ok2 {
				return false, fmt.Errorf("workload %s: metric %s is missing from a document", ow.Name, def.Name)
			}
			worse := ratio(nm.Value-om.Value, om.Value)
			if def.Better == "higher" {
				worse = -worse
			}
			noise := math.Max(om.Spread, nm.Spread)
			row(ow.Name, def.Name, om.Value, nm.Value, def.Unit, worse, def.Bound, noise,
				verdict(worse, def.Bound, noise, ow.Noisy || nw.Noisy))
		}
		// failed_ratio has bound 0: any increase is a regression.
		om, nm := ow.Metrics["failed_ratio"], nw.Metrics["failed_ratio"]
		v := "same"
		switch {
		case nm.Value > om.Value:
			v = "worse"
		case nm.Value < om.Value:
			v = "better"
		}
		row(ow.Name, "failed_ratio", om.Value, nm.Value, "ratio", nm.Value-om.Value, 0, 0, v)
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	return anyWorse, nil
}
