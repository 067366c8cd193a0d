package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"fabp"
)

// paperChannelGBps is the paper's reference bandwidth: one 512-bit memory
// channel at 200 MHz streaming 256 nucleotides per beat.
const paperChannelGBps = 12.8

// measures are the traced run's numbers that do not come from spans. Each
// stays zero on a workload whose ops do not reach its layer.
type measures struct {
	spine []float64 // facade op minus the untraced composition, ms
	// plain and traced hold untraced and traced walls in ms, by op kind
	// (one kind for a library workload, the request kinds for serve_mixed).
	plain, traced map[string][]float64
	// packCount/packSumNs is the facade's stream.pack.latency delta.
	packCount uint64
	packSumNs int64
	// Protein-search counter deltas over multi-threaded searches.
	spec, ext, wordHits uint64
	searches            int
	// Serve layer: /metrics deltas and /align cache provenance.
	admitted, shed, rcHits, rcMisses uint64
	alignCalls, alignCacheHits       int
}

// runTraced is the traced run: the workload's own set-up and ops rebuilt
// from layer calls, the ops at GOMAXPROCS = nproc and at 1. It reports
// per-layer metrics; a layer the workload does not reach reports 0.
func runTraced(e *runEnv, in *inputs) (*report, error) {
	rep := newReport(in, e, true)
	tr := newTracer()
	ls, err := newLayerSys(tr, in)
	if err != nil {
		return nil, err
	}
	m := measures{plain: map[string][]float64{}, traced: map[string][]float64{}}
	if in.Workload == "serve_mixed" {
		err = tracedServe(e, in, tr, rep, &m)
	} else {
		err = tracedLibrary(e, in, tr, ls, rep, &m)
	}
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.workDir, "traces", fmt.Sprintf("%s-seed%d.json", in.Workload, e.seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	spans, err := readChrome(path)
	if err != nil {
		return nil, err
	}
	rep.note("spans", float64(len(spans)))
	layerMetricsFromTrace(rep, newTraceView(spans), &m)
	return rep, nil
}

// tracedLibrary runs a library workload's ops three ways, in rotating
// order: through the facade, as an untraced composition and as a traced
// one. All three must return the same bytes.
func tracedLibrary(e *runEnv, in *inputs, tr *tracer, ls *layerSys, rep *report, m *measures) error {
	w, err := newLibWorkload(in)
	if err != nil {
		return err
	}
	if err := w.setup(); err != nil {
		return err
	}
	ctx := context.Background()
	nproc := runtime.GOMAXPROCS(0)
	shared := newPool(0)
	for j, t0 := 0, time.Now(); time.Since(t0) < e.warmup/2; j++ {
		if _, err := w.op(ctx, w.ops-1-j%w.ops); err != nil {
			return err
		}
	}

	pack0, packSum0 := sutLatency("stream.pack.latency")
	spec0, ext0, words0 := speculation()
	ops := 0
	for t0 := time.Now(); time.Since(t0) < e.window/2; ops++ {
		idx := ops % w.ops
		var outs [3]any
		var walls [3]float64
		for k := 0; k < 3; k++ {
			var err error
			start := time.Now()
			switch v := (ops + k) % 3; v {
			case 0:
				outs[v], err = w.op(ctx, idx)
			case 1:
				outs[v], err = ls.op(ctx, spanCtx{}, shared, nproc, idx)
			case 2:
				root := tr.root("op", int64(idx))
				outs[v], err = ls.op(ctx, root, shared, nproc, idx)
				root.end(0, 0)
			}
			walls[(ops+k)%3] = float64(time.Since(start).Nanoseconds()) / 1e6
			if err != nil {
				return fmt.Errorf("op %d: %w", idx, err)
			}
		}
		if hsps, ok := outs[0].([]fabp.HSP); ok {
			outs[0] = toWireHSPs(hsps)
		}
		if !sameJSON(outs[0], outs[2]) || !sameJSON(outs[1], outs[2]) {
			rep.failOp("op %d: the traced composition's output differs from the facade's", idx)
		}
		m.spine = append(m.spine, walls[0]-walls[1])
		m.plain["op"] = append(m.plain["op"], walls[1])
		m.traced["op"] = append(m.traced["op"], walls[2])
	}
	rep.Attempted = ops
	pack1, packSum1 := sutLatency("stream.pack.latency")
	m.packCount, m.packSumNs = pack1-pack0, packSum1-packSum0
	if in.Workload == "protein_search" {
		spec1, ext1, words1 := speculation()
		m.spec, m.ext, m.wordHits, m.searches = spec1-spec0, ext1-ext0, words1-words0, 3*ops
	}

	// The single-threaded baseline: the same ops at GOMAXPROCS=1 on a
	// one-worker pool (one search thread).
	runtime.GOMAXPROCS(1)
	pool1 := newPool(1)
	for j, t0 := 0, time.Now(); j < ops && time.Since(t0) < e.window/4; j++ {
		root := tr.root("op.t1", int64(j%w.ops))
		_, err := ls.op(ctx, root, pool1, 1, j%w.ops)
		root.end(0, 0)
		if err != nil {
			runtime.GOMAXPROCS(nproc)
			return err
		}
	}
	runtime.GOMAXPROCS(nproc)
	return nil
}

// tracedServe runs serve_mixed's 20 req/s traffic with every other
// request traced, reading /metrics around it.
func tracedServe(e *runEnv, in *inputs, tr *tracer, rep *report, m *measures) error {
	fx, err := newServeFixture(e, in)
	if err != nil {
		return err
	}
	defer fx.remove()
	s, err := startServe(e.serveBin, fx.path, runtime.NumCPU())
	if err != nil {
		return err
	}
	byPhase := in.Serve.byPhase()
	warm := runPhase(s, in.Shape.Frac, in.Serve.Phases[0], byPhase[0], nil)
	before, err := s.metrics()
	var main *phaseResult
	var after *serveMetrics
	if err == nil {
		main = runPhase(s, in.Shape.Frac, in.Serve.Phases[1], byPhase[1], tr)
		after, err = s.metrics()
	}
	if _, serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	verifyServe(rep, fx.db, in, []*phaseResult{warm, main})
	rep.Attempted = len(main.reqs)
	for i, r := range main.reqs {
		if r.call.Err != nil || r.bad != nil {
			rep.Failed++
		}
		if i%2 == 1 {
			m.traced[r.req.Kind] = append(m.traced[r.req.Kind], r.latencyMs())
		} else {
			m.plain[r.req.Kind] = append(m.plain[r.req.Kind], r.latencyMs())
		}
	}
	m.addServe(before, after, main.reqs)
	return nil
}

// addServe folds one phase's /metrics deltas and cache provenance in.
func (m *measures) addServe(before, after *serveMetrics, reqs []*loadReq) {
	d := func(name string) uint64 { return after.Counters[name] - before.Counters[name] }
	m.admitted += d("admission.admitted")
	m.shed += d("admission.shed.capacity") + d("admission.shed.deadline")
	m.rcHits += d("rcache.hits")
	m.rcMisses += d("rcache.misses")
	for _, r := range reqs {
		if r.req.Kind == reqAlignPool || r.req.Kind == reqAlignDistinct {
			m.alignCalls++
			if r.call.Resp.Cache == "hit" {
				m.alignCacheHits++
			}
		}
	}
}
