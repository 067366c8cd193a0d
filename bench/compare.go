package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// loadReports reads the untraced run reports in dir, grouped by workload.
func loadReports(dir string) (map[string][]*report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*report{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced run reports", dir)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Seed != rs[j].Seed {
				return rs[i].Seed < rs[j].Seed
			}
			return rs[i].Date < rs[j].Date
		})
	}
	return out, nil
}

// verdict applies the choosing-metrics §8 rule to one (workload, metric)
// pair. B is the change, A the baseline.
type verdict struct {
	medA, medB float64
	q1A, q3A   float64
	q1B, q3B   float64
	wins       float64 // share of pairs B won; ties count for neither
	pairs      int
	verdict    string
}

// judge compares all runs a and b; pairs holds the (A, B) values of runs
// made with the same seed.
func judge(a, b []float64, pairs [][2]float64, better string, bound float64) verdict {
	v := verdict{pairs: len(pairs)}
	v.q1A, v.medA, v.q3A = quartiles(a)
	v.q1B, v.medB, v.q3B = quartiles(b)
	// gain > 0 means B is better.
	gain := func(x, y float64) float64 {
		if better == "lower" {
			return x - y
		}
		return y - x
	}
	won := 0
	for _, p := range pairs {
		if gain(p[0], p[1]) > 0 {
			won++
		}
	}
	if v.pairs > 0 {
		v.wins = float64(won) / float64(v.pairs)
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if gain(x, y) <= 0 {
				allBetter = false
			}
		}
	}
	spreadA := (v.q3A - v.q1A) / math.Abs(v.medA)
	worse := -gain(v.medA, v.medB) / math.Abs(v.medA)
	switch {
	case spreadA > bound && !allBetter:
		v.verdict = "unresolved"
	case v.wins >= 0.9 && gain(v.medA, v.medB) > v.q3A-v.q1A:
		v.verdict = "improved"
	case worse > bound:
		v.verdict = "regressed"
	default:
		v.verdict = "unchanged"
	}
	return v
}

// runCompare prints, for every workload and end-to-end metric, both sides'
// medians and quartiles, the share of pairs B won and the verdict judged
// against BENCHMARK.json's bounds. It refuses reports whose inputs or CPU
// counts differ, since those runs measured different things.
func runCompare(w io.Writer, benchJSON, dirA, dirB string) error {
	bf, err := loadBenchmarkFile(benchJSON)
	if err != nil {
		return err
	}
	bounds := bf.bounds()
	A, err := loadReports(dirA)
	if err != nil {
		return err
	}
	B, err := loadReports(dirB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-15s %12s %23s %12s %23s %6s  %s\n",
		"workload", "metric", "median A", "quartiles A", "median B", "quartiles B", "B won", "verdict")
	for _, wl := range workloadNames {
		ra, rb := A[wl], B[wl]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		if err := sameInputs(ra, rb); err != nil {
			return fmt.Errorf("%s: %w", wl, err)
		}
		for _, m := range e2eMetrics {
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			v := judge(va, vb, seedPairs(ra, rb, m.Name), m.Better, bounds[m.Name])
			fmt.Fprintf(w, "%-15s %-15s %12.4f [%10.4f,%10.4f] %12.4f [%10.4f,%10.4f] %5.0f%%  %s\n",
				wl, m.Name, v.medA, v.q1A, v.q3A, v.medB, v.q1B, v.q3B, 100*v.wins, v.verdict)
		}
	}
	return nil
}

// sameInputs requires both sides to have run the same inputs on the same
// number of CPUs: each seed present on both sides must carry one digest.
func sameInputs(a, b []*report) error {
	digest := map[int64]string{}
	for _, r := range a {
		digest[r.Seed] = r.Identity.InputSHA256
		if r.Identity.NProc != a[0].Identity.NProc {
			return fmt.Errorf("the A runs differ in nproc")
		}
	}
	common := 0
	for _, r := range b {
		if r.Identity.NProc != a[0].Identity.NProc {
			return fmt.Errorf("nproc differs: %d vs %d; refusing to compare", a[0].Identity.NProc, r.Identity.NProc)
		}
		d, ok := digest[r.Seed]
		if !ok {
			continue
		}
		common++
		if d != r.Identity.InputSHA256 {
			return fmt.Errorf("seed %d: input digests differ (%s vs %s); refusing to compare", r.Seed, d, r.Identity.InputSHA256)
		}
	}
	if common == 0 {
		return fmt.Errorf("no seed was run on both sides; refusing to compare")
	}
	return nil
}

// seedPairs pairs each seed's first run on each side.
func seedPairs(a, b []*report, name string) [][2]float64 {
	first := map[int64]float64{}
	for _, r := range a {
		if _, ok := first[r.Seed]; !ok {
			first[r.Seed] = r.Metrics[name].Value
		}
	}
	var out [][2]float64
	seen := map[int64]bool{}
	for _, r := range b {
		if x, ok := first[r.Seed]; ok && !seen[r.Seed] {
			seen[r.Seed] = true
			out = append(out, [2]float64{x, r.Metrics[name].Value})
		}
	}
	return out
}

func metricValues(rs []*report, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}
