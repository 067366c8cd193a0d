package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// serveBin is fabp-serve built once for every test.
var serveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fabp-bench-test")
	if err != nil {
		panic(err)
	}
	serveBin = filepath.Join(dir, "fabp-serve")
	if out, err := exec.Command("go", "build", "-o", serveBin, "fabp/cmd/fabp-serve").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic(string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyEnv runs workloads at their smallest size for a tenth of a second:
// enough to exercise every path, not to measure anything.
func tinyEnv(t *testing.T) *runEnv {
	return &runEnv{seed: 7, window: 100 * time.Millisecond, warmup: 20 * time.Millisecond, scale: 1.0 / 64,
		minOps: 1, serveBin: serveBin, workDir: t.TempDir()}
}

// reaches names, per workload, a layer metric its traced run must report
// (its ops or set-up reach the layer) and one it must report as 0 (they
// do not).
var reaches = map[string]struct{ yes, no string }{
	"db_scan":        {"kernel.cells", "tblastn.scan_ms"},
	"db_batch":       {"load.ms", "serve.handler_ms"},
	"stream_ingest":  {"stream.chunks", "build.ms"},
	"protein_search": {"tblastn.translate_ms", "kernel.cells"},
	"serve_mixed":    {"serve.handler_ms", "sched.speedup"},
}

// TestWorkloads runs every workload untraced and traced and checks that
// each run verifies and emits exactly the metrics BENCHMARK.json declares,
// with their units.
func TestWorkloads(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	e := tinyEnv(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, err := runOne(e, w, trace)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			if !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d problems=%v", w, trace, rep.Correct, rep.Attempted, rep.Problems)
			}
			for name, unit := range declared[trace] {
				if got, ok := rep.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w, trace, name, got, unit)
				}
			}
			for name := range rep.Metrics {
				if _, ok := declared[trace][name]; !ok {
					t.Errorf("%s trace=%t: undeclared metric %s", w, trace, name)
				}
			}
			if trace {
				checkTraceFile(t, filepath.Join(e.workDir, "traces", w+"-seed7.json"))
				r := reaches[w]
				if rep.Metrics[r.yes].Value == 0 || rep.Metrics[r.no].Value != 0 {
					t.Errorf("%s: %s = %v, want non-zero; %s = %v, want 0", w,
						r.yes, rep.Metrics[r.yes].Value, r.no, rep.Metrics[r.no].Value)
				}
			}
		}
	}
}

// TestDeclarations keeps BENCHMARK.json and the code's declarations equal.
func TestDeclarations(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the code", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, file []metricDef, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: %d declared in BENCHMARK.json, %d in the code", kind, len(file), len(code))
		}
		for i := range code {
			if file[i] != code[i] {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the code", kind, i, file[i], code[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, e2eMetrics)
	check("per_layer", layer, layerMetrics)
}

func TestInputDigest(t *testing.T) {
	o := genOpts{Scale: 1.0 / 64, Window: 1}
	for _, w := range workloadNames {
		a, err := generate(w, 1, o)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 1, o)
		c, _ := generate(w, 2, o)
		if a.Digest != b.Digest {
			t.Errorf("%s: seed 1 gave two digests", w)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 1 and 2 gave the same digest", w)
		}
	}
}

// TestVerifierCatchesWrongHit plants a wrong expected position and
// requires the run to fail.
func TestVerifierCatchesWrongHit(t *testing.T) {
	e := tinyEnv(t)
	in, err := generate("db_scan", e.seed, genOpts{Scale: e.scale, Window: e.window.Seconds()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Queries {
		if in.Queries[i].Kind == kindPlanted {
			in.Queries[i].Off += 3
		}
	}
	rep, err := runLibrary(e, in)
	if err != nil {
		t.Fatal(err)
	}
	rep.finish()
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("a wrong expected hit passed: correct=%t failed=%d", rep.Correct, rep.Failed)
	}
}

// TestServeRefusalsFail points serve_mixed's generator at a server that
// refuses every request with 429 and requires the run to fail.
func TestServeRefusalsFail(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"admission queue full"}`))
	}))
	defer ts.Close()
	e := tinyEnv(t)
	in, err := generate("serve_mixed", e.seed, genOpts{Scale: e.scale, Window: e.window.Seconds()})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := newServeFixture(e, in)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.remove()
	s := &serveProc{base: ts.URL, client: ts.Client()}
	rep := newReport(in, e, false)
	scoreServe(e, rep, fx.db, in, runServePhases(s, in), []float64{0.001}, 1024)
	rep.finish()
	if rep.Correct || rep.Failed != rep.Attempted || rep.Metrics["success_rate"].Value != 0 {
		t.Fatalf("refused requests passed: correct=%t attempted=%d failed=%d success_rate=%v",
			rep.Correct, rep.Attempted, rep.Failed, rep.Metrics["success_rate"].Value)
	}
}

// TestSelfTimes checks the self-time split on overlapping children: each
// instant is shared by the spans running then with no running child.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 80},
		{ID: 4, Parent: 2, Name: "c", Start: 30, End: 40},
		{ID: 5, Parent: 1, Name: "zero", Start: 90, End: 90},
	}
	got := selfTimes(spans)
	// [0,10) root; [10,20) a; [20,30) a,b; [30,40) c,b; [40,60) a,b;
	// [60,80) b; [80,100) root.
	want := map[int64]float64{1: 30, 2: 10 + 5 + 10, 3: 5 + 5 + 10 + 20, 4: 5, 5: 0}
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-9 {
			t.Errorf("span %d: self %v, want %v", id, got[id], w)
		}
	}
}

// checkTraceFile parses a written trace and requires the self times of
// every tree to sum to its root's duration.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	spans, err := readChrome(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	v := newTraceView(spans)
	sums := map[int64]float64{}
	for _, s := range spans {
		sums[v.root[s.ID].ID] += v.self[s.ID]
	}
	for _, r := range v.roots {
		if d := float64(r.dur()); math.Abs(sums[r.ID]-d) > 1e-6*d+1 {
			t.Errorf("%s: root %s/%d self times sum to %v ns, duration %v ns", path, r.Name, r.Req, sums[r.ID], d)
		}
	}
}

// TestJudge covers each verdict of the §8 rule on a lower-is-better metric.
func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) ([]float64, [][2]float64) {
		b := make([]float64, len(base))
		pairs := make([][2]float64, len(base))
		for i, x := range base {
			b[i] = x + d
			pairs[i] = [2]float64{x, b[i]}
		}
		return b, pairs
	}
	for _, tc := range []struct {
		name  string
		a     []float64
		delta float64
		want  string
	}{
		{"faster", base, -10, "improved"},
		{"much slower", base, +20, "regressed"},
		{"same", base, 0, "unchanged"},
		{"noisy baseline", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, +5, "unresolved"},
	} {
		b, pairs := shift(tc.delta)
		if tc.a[0] != base[0] {
			for i := range pairs {
				pairs[i][0] = tc.a[i]
			}
		}
		if got := judge(tc.a, b, pairs, "lower", 0.1).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesDifferentInputs(t *testing.T) {
	mk := func(seed int64, digest string) *report {
		return &report{Seed: seed, Identity: identity{InputSHA256: digest, NProc: 2}}
	}
	if err := sameInputs([]*report{mk(1, "x")}, []*report{mk(1, "x")}); err != nil {
		t.Errorf("same inputs refused: %v", err)
	}
	if err := sameInputs([]*report{mk(1, "x")}, []*report{mk(1, "y")}); err == nil {
		t.Error("different digests for one seed were compared")
	}
	if err := sameInputs([]*report{mk(1, "x")}, []*report{mk(2, "y")}); err == nil {
		t.Error("runs with no common seed were compared")
	}
}
