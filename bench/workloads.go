package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"fabp"
)

// runEnv holds one run's settings. The benchmark always runs with warmup,
// scale 1, minOps 100 and setupBudget; the self-test shrinks them.
type runEnv struct {
	seed   int64
	window time.Duration // the measured window (--seconds)
	warmup time.Duration // discarded before the window
	scale  float64       // input scale (1 = the benchmark)
	// minOps is the fewest timed ops a run accepts: at 100, ten samples
	// lie beyond p90.
	minOps      int
	setupBudget time.Duration
	serveBin    string
	workDir     string
}

// warmup is discarded before every measured window.
const warmup = 2 * time.Second

// setupBudget is how long a run keeps repeating its set-up; setup_s is the
// median repeat. A time budget rather than a repeat count gives set-ups of
// a few milliseconds hundreds of samples, so their median holds still.
const setupBudget = time.Second

// minSetups is the fewest set-up repeats a run times, however slow.
const minSetups = 5

// timeSetups repeats setup until the budget has elapsed and at least
// minSetups repeats ran, and returns each repeat's time in seconds. before
// runs untimed ahead of each repeat.
func timeSetups(budget time.Duration, before, setup func() error) ([]float64, error) {
	var out []float64
	for t0 := time.Now(); len(out) < minSetups || time.Since(t0) < budget; {
		if err := before(); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// libWorkload is a library workload: a set-up, and ops driven through the
// facade in a closed loop by one client.
type libWorkload struct {
	in           *inputs
	queriesPerOp int
	ops          int // ops the query panel supplies without repeating
	// progress is the telemetry counter every real op advances; an op that
	// leaves it unchanged was not executed and fails.
	progress string
	// setup runs one cold set-up and leaves the system ready for ops.
	setup func() error
	// op runs op i through the facade.
	op func(ctx context.Context, i int) (any, error)
	// golden re-runs op i on the reference path: the scalar kernel for
	// nucleotide scans, one thread for protein search.
	golden func(ctx context.Context, i int) (any, error)
	// recall checks op i's output against what the inputs planted.
	recall func(i int, out any) error
}

func newLibWorkload(in *inputs) (*libWorkload, error) {
	sh := in.Shape
	w := &libWorkload{in: in, queriesPerOp: sh.Batch, ops: len(in.Queries) / sh.Batch}
	var qs []*fabp.Query
	prepQueries := func() (err error) {
		qs, err = sutQueries(in.proteins(0, len(in.Queries)))
		return err
	}
	switch in.Workload {
	case "db_scan":
		w.progress = "scan.shards.run"
		fasta := in.fasta()
		var d *fabp.Database
		w.setup = func() error {
			if d != nil {
				sutEvictPlanes(d)
			}
			nd, err := sutBuildDatabase(fasta)
			if err != nil {
				return err
			}
			d = nd
			return prepQueries()
		}
		w.op = func(ctx context.Context, i int) (any, error) { return sutScan(ctx, d, qs[i], sh.Frac, fabp.KernelAuto) }
		w.golden = func(ctx context.Context, i int) (any, error) {
			return sutScan(ctx, d, qs[i], sh.Frac, fabp.KernelScalar)
		}
		w.recall = func(i int, out any) error { return recallRecordHits(in.Queries[i], out.([]fabp.RecordHit)) }
	case "db_batch":
		w.progress = "scan.shards.run"
		d0, err := sutBuildDatabase(in.fasta())
		if err != nil {
			return nil, err
		}
		v2, err := sutSaveDatabase(d0)
		if err != nil {
			return nil, err
		}
		d := d0
		w.setup = func() error {
			sutEvictPlanes(d)
			nd, err := sutLoadDatabase(v2)
			if err != nil {
				return err
			}
			d = nd
			return prepQueries()
		}
		batch := func(i int) []*fabp.Query { return qs[i*sh.Batch : (i+1)*sh.Batch] }
		w.op = func(ctx context.Context, i int) (any, error) { return sutBatch(ctx, d, batch(i), sh.Frac) }
		w.golden = func(ctx context.Context, i int) (any, error) {
			out := make([][]fabp.RecordHit, 0, sh.Batch)
			for _, q := range batch(i) {
				hits, err := sutScan(ctx, d, q, sh.Frac, fabp.KernelScalar)
				if err != nil {
					return nil, err
				}
				out = append(out, hits)
			}
			return out, nil
		}
		w.recall = func(i int, out any) error {
			for k, hits := range out.([][]fabp.RecordHit) {
				if err := recallRecordHits(in.Queries[i*sh.Batch+k], hits); err != nil {
					return err
				}
			}
			return nil
		}
	case "stream_ingest":
		w.progress = "stream.chunks.processed"
		stream := in.stream()
		var aligners []*fabp.Aligner
		w.setup = func() error {
			if err := prepQueries(); err != nil {
				return err
			}
			aligners = make([]*fabp.Aligner, len(qs))
			for i, q := range qs {
				a, err := sutAligner(q, sh.Frac, fabp.KernelAuto)
				if err != nil {
					return err
				}
				aligners[i] = a
			}
			return nil
		}
		w.op = func(ctx context.Context, i int) (any, error) { return sutStream(ctx, aligners[i], stream) }
		w.golden = func(ctx context.Context, i int) (any, error) {
			a, err := sutAligner(qs[i], sh.Frac, fabp.KernelScalar)
			if err != nil {
				return nil, err
			}
			return sutStream(ctx, a, stream)
		}
		w.recall = func(i int, out any) error { return recallHits(in.Queries[i], out.([]fabp.Hit)) }
	case "protein_search":
		w.progress = "tblastn.searches"
		var ref *fabp.Reference
		w.setup = func() (err error) {
			if ref, err = sutReference(in.Letters); err != nil {
				return err
			}
			return prepQueries()
		}
		w.op = func(ctx context.Context, i int) (any, error) {
			return sutSearch(ctx, ref, qs[i], runtime.GOMAXPROCS(0))
		}
		w.golden = func(ctx context.Context, i int) (any, error) { return sutSearch(ctx, ref, qs[i], 1) }
		w.recall = func(i int, out any) error { return recallHSPs(in.Queries[i], toWireHSPs(out.([]fabp.HSP))) }
	default:
		return nil, fmt.Errorf("%s is not a library workload", in.Workload)
	}
	return w, nil
}

// timedOp is one op of the measured window.
type timedOp struct {
	idx     int
	latency float64 // ms; +Inf when the op failed
	done    float64 // completion, seconds into the window
	out     any
}

// runLibrary runs a library workload untraced: set-up repeats, warm-up,
// then the measured closed loop, then verification.
func runLibrary(e *runEnv, in *inputs) (*report, error) {
	w, err := newLibWorkload(in)
	if err != nil {
		return nil, err
	}
	rep := newReport(in, e, false)
	ctx := context.Background()

	setups, err := timeSetups(e.setupBudget, func() error { runtime.GC(); return nil }, w.setup)
	if err != nil {
		return nil, err
	}
	if !sutResultCacheOff() {
		rep.problem("the result cache is on; library workloads must scan every op")
	}

	next := 0
	for t0 := time.Now(); time.Since(t0) < e.warmup; next++ {
		if _, err := w.op(ctx, next%w.ops); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", next, err)
		}
	}

	var ops []timedOp
	t0 := time.Now()
	for time.Since(t0) < e.window {
		if next == w.ops {
			rep.note("panel_wrapped", 1)
		}
		idx := next % w.ops
		before := sutCounter(w.progress)
		start := time.Now()
		out, err := w.op(ctx, idx)
		lat := float64(time.Since(start).Nanoseconds()) / 1e6
		if err == nil && sutCounter(w.progress) == before {
			err = fmt.Errorf("did not advance %s", w.progress)
		}
		if err == nil {
			err = w.recall(idx, out)
		}
		if err != nil {
			rep.failOp("op %d: %v", idx, err)
			lat = math.Inf(1)
		}
		ops = append(ops, timedOp{idx: idx, latency: lat, done: time.Since(t0).Seconds(), out: out})
		next++
	}

	// Re-run a seeded sample of the timed ops on the reference path.
	rng := rand.New(rand.NewSource(e.seed))
	for _, k := range sampleIndexes(rng, len(ops), goldenSamples(in.Workload)) {
		op := ops[k]
		if math.IsInf(op.latency, 1) {
			continue
		}
		g, err := w.golden(ctx, op.idx)
		if err == nil && !sameJSON(g, op.out) {
			err = fmt.Errorf("differs from the reference path")
		}
		if err != nil {
			rep.failOp("op %d golden check: %v", op.idx, err)
		}
	}

	lats := make([]float64, len(ops))
	for i, op := range ops {
		lats[i] = op.latency
	}
	rep.Attempted = len(ops)
	if len(ops) < e.minOps {
		rep.problem("only %d ops timed; at least %d are needed", len(ops), e.minOps)
	}
	ok := float64(rep.Attempted - rep.Failed)
	rps := medianRate(ops, e.window.Seconds())
	rep.set("setup_s", median(setups))
	rep.set("throughput_qps", rps*float64(w.queriesPerOp))
	rep.set("latency_p50_ms", percentile(lats, 0.5))
	rep.set("latency_p90_ms", percentile(lats, 0.9))
	rep.set("success_rate", ok/float64(max(1, rep.Attempted)))
	rep.set("peak_rss_mb", float64(selfPeakKiB())/1024)
	rep.set("sustained_rps", rps)
	rep.note("ops_timed", float64(len(ops)))
	return rep, nil
}

// rateBuckets is how many equal slices of the window the closed-loop
// rate is measured over; the median slice is reported, so a burst of
// contention from outside the benchmark moves it less than a mean would.
const rateBuckets = 8

// medianRate is the median, over the window's slices, of successful ops
// completed per second.
func medianRate(ops []timedOp, window float64) float64 {
	counts := make([]float64, rateBuckets)
	for _, op := range ops {
		if !math.IsInf(op.latency, 1) {
			counts[min(rateBuckets-1, int(op.done/window*rateBuckets))]++
		}
	}
	return median(counts) * rateBuckets / window
}

// goldenSamples is how many timed ops each workload re-runs on the
// reference path; the scalar re-runs are slow, so batches sample one.
func goldenSamples(workload string) int {
	if workload == "db_batch" {
		return 1
	}
	return 3
}

// sampleIndexes picks up to n distinct indexes in [0, total).
func sampleIndexes(rng *rand.Rand, total, n int) []int {
	if n > total {
		n = total
	}
	out := rng.Perm(total)[:n]
	sort.Ints(out)
	return out
}

func selfPeakKiB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// serveSLO is the p90 latency limit of a serve_mixed ladder step.
const serveSLO = 150 * time.Millisecond

// phaseResult is one serve_mixed phase's requests as the generator saw
// them.
type phaseResult struct {
	phase servePhase
	reqs  []*loadReq
	// start is the phase's time zero, which due times count from; end is
	// when its last response arrived.
	start, end time.Time
}

// loadReq is one open-loop request.
type loadReq struct {
	req  *serveReq
	due  time.Time
	lag  time.Duration // how late the generator sent it
	call serveCall
	bad  error // set when the response fails verification
}

func (r *loadReq) latencyMs() float64 {
	if r.call.Err != nil || r.bad != nil {
		return math.Inf(1)
	}
	return float64(r.call.Done.Sub(r.due).Nanoseconds()) / 1e6
}

// runPhase sends one phase's requests at their due times from one process
// over at most nproc connections, then waits for every response. Requests
// are timed from when they were due, so a stall delays every later one.
// A non-nil tracer records the spans of every odd-numbered request as its
// response arrives.
func runPhase(s *serveProc, frac float64, ph servePhase, reqs []*serveReq, tr *tracer) *phaseResult {
	res := &phaseResult{phase: ph}
	var wg sync.WaitGroup
	start := time.Now()
	res.start = start
	for i, r := range reqs {
		lr := &loadReq{req: r, due: start.Add(time.Duration(r.At * float64(time.Second)))}
		if d := time.Until(lr.due); d > 0 {
			time.Sleep(d)
		}
		lr.lag = time.Since(lr.due)
		res.reqs = append(res.reqs, lr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			lr.call = s.call(context.Background(), lr.req.Kind, protStrings(lr.req.Queries), frac)
			if i%2 == 1 {
				tr.serveSpans(int64(i), lr.call)
			}
		}()
	}
	wg.Wait()
	for _, r := range res.reqs {
		if r.call.Done.After(res.end) {
			res.end = r.call.Done
		}
	}
	return res
}

// stepStats summarizes a phase: latency percentiles over every request
// (failed ones count as +Inf), errors, and whether it met the SLO.
type stepStats struct {
	n, failed int
	p50, p90  float64
	queries   int
	qps       float64
	lateMean  float64 // mean latency of the last quarter, ms
	lagP99    float64 // how late the generator sent, ms
	pass      bool
}

func (p *phaseResult) stats() stepStats {
	st := stepStats{n: len(p.reqs)}
	lats := make([]float64, 0, len(p.reqs))
	lags := make([]float64, 0, len(p.reqs))
	for _, r := range p.reqs {
		l := r.latencyMs()
		lats = append(lats, l)
		lags = append(lags, float64(r.lag.Nanoseconds())/1e6)
		if math.IsInf(l, 1) {
			st.failed++
		} else {
			st.queries += len(r.req.Queries) // a K=4 batch counts 4
		}
	}
	st.p50, st.p90 = percentile(lats, 0.5), percentile(lats, 0.9)
	st.lagP99 = percentile(lags, 0.99)
	if d := p.end.Sub(p.start).Seconds(); d > 0 {
		st.qps = float64(st.queries) / d
	}
	last := lats[len(lats)*3/4:]
	st.lateMean = sum(last) / float64(len(last))
	slo := float64(serveSLO.Milliseconds())
	// No growing backlog: the last quarter's mean latency still meets the
	// limit, so requests were not piling up at the end of the step.
	st.pass = st.failed == 0 && st.p90 <= slo && st.lateMean <= slo
	return st
}

// serveFixture is serve_mixed's database file plus an in-process copy of
// the same database for verification.
type serveFixture struct {
	path string
	db   *fabp.Database
}

func newServeFixture(e *runEnv, in *inputs) (*serveFixture, error) {
	d, err := sutBuildDatabase(in.fasta())
	if err != nil {
		return nil, err
	}
	v2, err := sutSaveDatabase(d)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.workDir, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("serve-%d-%d.fdb", os.Getpid(), e.seed))
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		return nil, err
	}
	return &serveFixture{path: path, db: d}, nil
}

func (f *serveFixture) remove() { os.Remove(f.path) }

// runServeMixed runs serve_mixed untraced: server start-ups, warm-up, the
// 10/20/30 req/s ladder, then verification.
func runServeMixed(e *runEnv, in *inputs) (*report, error) {
	rep := newReport(in, e, false)
	fx, err := newServeFixture(e, in)
	if err != nil {
		return nil, err
	}
	defer fx.remove()

	// Each repeat stops the previous server, untimed, and starts a fresh
	// one; the last one started serves the traffic.
	var s *serveProc
	stopPrev := func() error {
		if s == nil {
			return nil
		}
		_, err := s.stop()
		s = nil
		return err
	}
	setups, err := timeSetups(e.setupBudget, stopPrev, func() (err error) {
		s, err = startServe(e.serveBin, fx.path, runtime.NumCPU())
		return err
	})
	if err != nil {
		return nil, err
	}
	phases := runServePhases(s, in)
	peak, err := s.stop()
	if err != nil {
		rep.problem("fabp-serve shutdown: %v", err)
	}
	scoreServe(e, rep, fx.db, in, phases, setups, peak)
	return rep, nil
}

// scoreServe verifies serve_mixed's responses and sets its metrics. A
// request that failed, was refused or answered wrongly, in any step, fails
// the run. The latency metrics come from the 20 req/s step; success_rate
// covers the whole ladder.
func scoreServe(e *runEnv, rep *report, d *fabp.Database, in *inputs, phases []*phaseResult, setups []float64, peakKiB int64) {
	verifyServe(rep, d, in, phases)
	sustained := 0.0
	var ref stepStats
	for _, p := range phases {
		if p.phase.Name == "warmup" {
			continue
		}
		st := p.stats()
		rep.Attempted += st.n
		rep.Failed += st.failed
		rep.note(p.phase.Name+".p90_ms", finite(st.p90))
		rep.note(p.phase.Name+".gen_lag_p99_ms", st.lagP99)
		if st.lagP99 > 50 {
			rep.problem("%s: the generator ran %.1f ms late at p99; the step is not valid", p.phase.Name, st.lagP99)
		}
		if p.phase.Name == "rate20" {
			ref = st
		}
		if st.pass && p.phase.Rate > sustained {
			sustained = p.phase.Rate
		}
	}
	if ref.n < e.minOps {
		rep.problem("only %d requests timed at 20 req/s; at least %d are needed", ref.n, e.minOps)
	}
	rep.set("setup_s", median(setups))
	rep.set("throughput_qps", ref.qps)
	rep.set("latency_p50_ms", ref.p50)
	rep.set("latency_p90_ms", ref.p90)
	rep.set("success_rate", float64(rep.Attempted-rep.Failed)/float64(max(1, rep.Attempted)))
	rep.set("peak_rss_mb", float64(peakKiB)/1024)
	rep.set("sustained_rps", sustained)
	rep.note("ops_timed", float64(ref.n))
}

// runServePhases sends every phase of the inputs' schedule in order,
// letting each drain before the next starts.
func runServePhases(s *serveProc, in *inputs) []*phaseResult {
	byPhase := in.Serve.byPhase()
	var out []*phaseResult
	for p, ph := range in.Serve.Phases {
		out = append(out, runPhase(s, in.Shape.Frac, ph, byPhase[p], nil))
	}
	return out
}
