package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef declares one reported metric. The same names, units and
// directions are declared in BENCHMARK.json; bench_test.go keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// e2eMetrics are what a user of the system sees. They are measured with
// tracing off and reported for every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_qps", "queries/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"success_rate", "fraction", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"sustained_rps", "requests/s", "higher"},
}

// layerMetrics come from the traced run. Each is listed with the layer it
// measures and the end-to-end metric it should move (see README.md).
var layerMetrics = []metricDef{
	{"decode.mb_per_s", "MB/s", "higher"},
	{"decode.share", "fraction", "lower"},
	{"pack.gnt_per_s", "Gnt/s", "higher"},
	{"pack.share", "fraction", "lower"},
	{"kernel.cells", "count", "lower"},
	{"kernel.gcells_per_s_core", "Gcells/s", "higher"},
	{"kernel.share", "fraction", "lower"},
	{"kernel.ref_gb_per_s", "GB/s", "higher"},
	{"kernel.roofline_frac", "fraction", "higher"},
	{"sched.shards", "count", "higher"},
	{"sched.imbalance", "ratio", "lower"},
	{"sched.idle_frac", "fraction", "lower"},
	{"sched.speedup", "ratio", "higher"},
	{"attr.keep_ratio", "fraction", "higher"},
	{"attr.us_per_call", "us", "lower"},
	{"build.ms", "ms", "lower"},
	{"load.ms", "ms", "lower"},
	{"spine.overhead_ms", "ms", "lower"},
	{"stream.chunks", "count", "lower"},
	{"stream.chunk_ms", "ms", "lower"},
	{"stream.pack_latency_ms", "ms", "lower"},
	{"tblastn.translate_ms", "ms", "lower"},
	{"tblastn.index_ms", "ms", "lower"},
	{"tblastn.scan_ms", "ms", "lower"},
	{"tblastn.speedup", "ratio", "higher"},
	{"tblastn.ext_yield", "fraction", "higher"},
	{"tblastn.spec_ratio", "ratio", "lower"},
	{"tblastn.word_hits", "count", "lower"},
	{"tblastn.extensions", "count", "lower"},
	{"serve.handler_ms", "ms", "lower"},
	{"serve.transport_ms", "ms", "lower"},
	{"admission.admitted", "count", "lower"},
	{"admission.shed", "count", "lower"},
	{"rcache.hit_ratio", "fraction", "higher"},
	{"serve.cache_hit_share", "fraction", "higher"},
	{"trace.overhead_frac", "fraction", "lower"},
}

// workloadNames lists the workloads in the order a full run executes them.
var workloadNames = []string{"db_scan", "db_batch", "stream_ingest", "protein_search", "serve_mixed"}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// bounds maps each end-to-end metric to its regression bound.
func (f *benchmarkFile) bounds() map[string]float64 {
	out := make(map[string]float64, len(f.EndToEnd))
	for _, m := range f.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
