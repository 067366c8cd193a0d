// Command bench is fabp's layered benchmark: five workloads measured end
// to end through the system's public APIs, plus a traced run that times
// each layer. Run it through bench/run.sh from the repository root; see
// bench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all, each in its own child process)")
	seed := flag.Int64("seed", 1, "input seed: the only source of randomness")
	seconds := flag.Float64("seconds", 16, "measured window per run, in seconds")
	trace := flag.Int("trace", 0, "1 = the traced run, which reports per-layer metrics")
	compare := flag.Bool("compare", false, "compare two directories of run reports: -compare A/ B/")
	workDir := flag.String("work-dir", ".bench_build", "directory for reports, traces and scratch files")
	outDir := flag.String("out", "", "directory for run reports (default: <work-dir>/reports)")
	serveBin := flag.String("serve-bin", ".bench_build/fabp-serve", "fabp-serve binary")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: -compare A/ B/")
		}
		if err := runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *outDir == "" {
		*outDir = filepath.Join(*workDir, "reports")
	}
	e := &runEnv{
		seed: *seed, window: time.Duration(*seconds * float64(time.Second)), warmup: warmup,
		scale: 1, minOps: 100, setupBudget: setupBudget, serveBin: *serveBin, workDir: *workDir,
	}
	if *workload == "" {
		os.Exit(runAll(e, *trace == 1, *outDir))
	}
	if !knownWorkload(*workload) {
		fatalf("unknown workload %q (one of %v)", *workload, workloadNames)
	}
	rep, err := runOne(e, *workload, *trace == 1)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	if path, err := rep.save(*outDir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: report not saved: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "bench: report %s\n", path)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", rep.Workload, p)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// runOne generates a workload's inputs and runs it in this process.
func runOne(e *runEnv, workload string, trace bool) (*report, error) {
	in, err := generate(workload, e.seed, genOpts{Scale: e.scale, Window: e.window.Seconds(), Trace: trace})
	if err != nil {
		return nil, err
	}
	var rep *report
	switch {
	case trace:
		rep, err = runTraced(e, in)
	case workload == "serve_mixed":
		rep, err = runServeMixed(e, in)
	default:
		rep, err = runLibrary(e, in)
	}
	if err != nil {
		return nil, err
	}
	rep.finish()
	return rep, nil
}

// runAll runs every workload, each in a child process of its own so that
// its peak memory is its own, and prints every metric by name and unit.
func runAll(e *runEnv, trace bool, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	code := 0
	for _, w := range workloadNames {
		cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(e.seed, 10),
			"-seconds", strconv.FormatFloat(e.window.Seconds(), 'f', -1, 64), "-trace", traceArg,
			"-work-dir", e.workDir, "-out", outDir, "-serve-bin", e.serveBin)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		var res result
		if jerr := json.Unmarshal(lastLine(out), &res); jerr != nil {
			fmt.Printf("%s: no result (%v)\n", w, err)
			code = 1
			continue
		}
		if err != nil || !res.Correct {
			code = 1
		}
		fmt.Printf("%s: correct=%t attempted=%d failed=%d\n", w, res.Correct, res.Attempted, res.Failed)
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-26s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
		}
	}
	return code
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
