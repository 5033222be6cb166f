package main

import "testing"

// TestPerLayerSmoke runs all five workloads traced at 1 % scale — spans,
// solo classes and the ladder included — and checks that each emits exactly
// the per-layer metrics BENCHMARK.json lists, and that each workload loads
// the layer it was chosen for.
func TestPerLayerSmoke(t *testing.T) {
	b := readManifest(t)
	layers, err := layerRun(smoke(t, true))
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloadDefs {
		cfg := smoke(t, true)
		rep, err := runWorkload(cfg, def)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %s", def.name, rep.Failed, rep.Attempted, rep.FirstFailure)
		}
		emitted := metricSet{}
		emitted.merge(rep.Metrics)
		emitted.merge(layers) // panics if a name is in both
		for _, m := range b.PerLayer {
			got, ok := emitted[m.Name]
			checkMetric(t, def.name, m.Name, got, ok)
			if ok && got.Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", def.name, m.Name, got.Unit, m.Unit)
			}
		}
		if len(emitted) != len(b.PerLayer) {
			listed := map[string]bool{}
			for _, m := range b.PerLayer {
				listed[m.Name] = true
			}
			for name := range emitted {
				if !listed[name] {
					t.Errorf("%s: emitted %s, which BENCHMARK.json does not list", def.name, name)
				}
			}
		}

		var tf traceFile
		if err := readJSON(cfg.traceOut, &tf); err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		trace := tf[def.name]
		names := map[string]int{}
		for _, s := range trace.Spans {
			names[s.Name]++
			if s.EndNS < s.StartNS || s.Parent >= len(trace.Spans) {
				t.Fatalf("%s: malformed span %+v", def.name, s)
			}
		}
		for _, want := range []string{"round", "open", "register", "query", "prepare", "execute", "first_row", "drain", "close"} {
			if names[want] == 0 {
				t.Errorf("%s: no %q span in the trace", def.name, want)
			}
		}

		v := func(name string) float64 { return emitted[name].Value }
		switch def.name {
		case "cold_first_query":
			if v("rawcache.hit_ratio") != 0 || v("core.fields_tokenized_per_row") <= 0 {
				t.Errorf("cold: rawcache.hit_ratio=%v fields_tokenized_per_row=%v; want 0 and > 0",
					v("rawcache.hit_ratio"), v("core.fields_tokenized_per_row"))
			}
		case "warm_filter_project":
			if v("rawfile.bytes_read_per_round") != 0 || v("nodb.tokenizing_ms") != 0 {
				t.Errorf("warm: bytes_read_per_round=%v tokenizing_ms=%v; want 0 and 0",
					v("rawfile.bytes_read_per_round"), v("nodb.tokenizing_ms"))
			}
		case "shifting_budget":
			if len(rep.obs.rounds) == 0 {
				t.Error("shifting: no round was observed")
			}
			for i, r := range rep.obs.rounds {
				if r.posEvict+r.cacheEvict <= 0 {
					t.Errorf("shifting: timed round %d evicted nothing", i)
				}
			}
			if h := v("rawcache.hit_ratio"); h <= 0 || h >= 1 {
				t.Errorf("shifting: rawcache.hit_ratio = %v, want strictly between 0 and 1", h)
			}
		case "concurrent_groupby":
			if rep.obs.maxWorkers == 0 || rep.obs.maxRunning > rep.obs.maxWorkers {
				t.Errorf("concurrent: pool ran %d workers, bound %d", rep.obs.maxRunning, rep.obs.maxWorkers)
			}
			if v("sched.tasks_per_round") <= 0 {
				t.Errorf("concurrent: sched.tasks_per_round = %v", v("sched.tasks_per_round"))
			}
		case "append_requery":
			if got, file := v("rawfile.bytes_read_per_round"), float64(rep.FileBytes["ints10s"]); got <= 0 || got > file/2 {
				t.Errorf("append: bytes_read_per_round = %v, want a small part of the %v-byte file", got, file)
			}
		}
	}
}
