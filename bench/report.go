package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run of one workload measured. The last line a
// run prints is its result: the correct/attempted/failed/metrics subset.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Notes     map[string]float64 `json:"notes,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	Identity  identity           `json:"identity"`
	Date      string             `json:"date"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// identity pins what produced a report: the exact inputs and the machine.
type identity struct {
	InputSHA256 string `json:"input_sha256"`
	GoVersion   string `json:"go_version"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	LLC         string `json:"llc"`
	Commit      string `json:"commit"`
}

func newReport(in *inputs, e *runEnv, trace bool) *report {
	model, llc := cpuInfo()
	return &report{
		Workload: in.Workload, Seed: e.seed, Seconds: e.window.Seconds(), Trace: trace,
		Metrics: map[string]metric{}, Notes: map[string]float64{},
		Identity: identity{
			InputSHA256: in.Digest, GoVersion: runtime.Version(),
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			CPUModel: model, LLC: llc, Commit: gitCommit(),
		},
		Date: time.Now().UTC().Format(time.RFC3339),
	}
}

// unitOf maps every declared metric to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), e2eMetrics...), layerMetrics...) {
		m[d.Name] = d.Unit
	}
	return m
}()

// set records a declared metric; an undeclared name is a bug.
func (r *report) set(name string, v float64) {
	u, ok := unitOf[name]
	if !ok {
		panic("undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: finite(v), Unit: u}
}

func (r *report) note(name string, v float64) { r.Notes[name] = v }

// maxProblems bounds the problem list; the count keeps growing.
const maxProblems = 20

func (r *report) problem(format string, args ...any) {
	r.Notes["problems"]++
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// failOp counts a failed op: an error, a missed planted hit, or an output
// that differs from the reference path.
func (r *report) failOp(format string, args ...any) {
	r.Failed++
	r.problem(format, args...)
}

// finish settles correctness and checks that exactly the declared metrics
// of the run's kind were emitted.
func (r *report) finish() {
	want := e2eMetrics
	if r.Trace {
		want = layerMetrics
	}
	for _, d := range want {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.problem("metric %s was not measured", d.Name)
		}
	}
	if len(r.Metrics) != len(want) {
		r.problem("%d metrics emitted, %d declared", len(r.Metrics), len(want))
	}
	r.Correct = r.Notes["problems"] == 0
}

func (r *report) result() result {
	return result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// save writes the report into dir.
func (r *report) save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.Workload, r.Seed, trace, time.Now().UnixNano()))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuInfo reads the CPU model and last-level cache size from the kernel.
func cpuInfo() (model, llc string) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown", "unknown"
	}
	defer f.Close()
	model, llc = "unknown", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			model = strings.TrimSpace(v)
		case "cache size":
			llc = strings.TrimSpace(v)
		}
		if model != "unknown" && llc != "unknown" {
			break
		}
	}
	return model, llc
}

// gitCommit resolves HEAD from the .git directory of the working
// directory, or reports "unknown" (a checkout without git metadata).
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
