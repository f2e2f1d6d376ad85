package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricSpec names one reported metric and its unit. The lists below are the
// metrics BENCHMARK.json declares; a test keeps the two in step.
type metricSpec struct {
	name, unit string
}

// e2eMetrics are reported by every untraced run, on every workload.
var e2eMetrics = []metricSpec{
	{"ns_per_call", "ns"},
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"paper_err_pct", "%"},
}

// layerMetrics are reported by every traced run, on every workload. A layer
// the workload never calls reports 0.
var layerMetrics = []metricSpec{
	{"fleet.sample_ns", "ns"},
	{"traffic.arrival_ns", "ns"},
	{"corpus.gen_s", "s"},
	{"corpus.gen_MBps", "MB/s"},
	{"comp.encode_s", "s"},
	{"comp.encode_MBps", "MB/s"},
	{"comp.encode_allocs_per_call", "count"},
	{"comp.full_encode_frac", "ratio"},
	{"core.exec_s.snappy-c", "s"},
	{"core.exec_s.zstd-c", "s"},
	{"core.exec_s.snappy-d", "s"},
	{"core.exec_s.zstd-d", "s"},
	{"core.exec_allocs_per_call", "count"},
	{"core.host_ns_per_kcycle", "ns"},
	{"core.sim_kcycles", "kcycles"},
	{"lz77.parse_MBps", "MB/s"},
	{"core.step_ns", "ns"},
	{"cluster.step_ns", "ns"},
	{"traffic.burn_observe_ns", "ns"},
	{"hcbench.build_pool_s.snappy", "s"},
	{"hcbench.build_pool_s.zstd", "s"},
	{"hcbench.build_pool_alloc_mb", "MB"},
	{"hcbench.generate_s", "s"},
	{"comp.compress_suite_s", "s"},
	{"core.decomp_config_s", "s"},
	{"core.comp_config_s", "s"},
	{"exp.run_cache_hits", "count"},
	{"exp.run_cache_misses", "count"},
	{"sim.serial_wall_s", "s"},
	{"sim.residual_s", "s"},
	{"trace.coverage", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome counts the operations a run attempted and how many of them failed
// (an error, or an output that did not match its digest).
type outcome struct {
	attempted, failed int
}

func (o *outcome) add(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// buildResult attaches units to values and checks that exactly the declared
// metrics are present with finite values; anything else is a failed run.
func buildResult(specs []metricSpec, values map[string]float64, o outcome) (result, error) {
	r := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return r, fmt.Errorf("metric %s not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", s.name, v)
		}
		r.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if len(values) != len(specs) {
		var extra []string
		for name := range values {
			if !hasMetric(specs, name) {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return r, fmt.Errorf("undeclared metrics %v", extra)
	}
	r.Correct = r.Attempted > 0 && r.Failed == 0
	return r, nil
}

func hasMetric(specs []metricSpec, name string) bool {
	for _, s := range specs {
		if s.name == name {
			return true
		}
	}
	return false
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
