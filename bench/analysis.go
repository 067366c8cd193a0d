package main

import (
	"math"
	"sort"
)

// traceView indexes a parsed trace for the per-layer metrics.
type traceView struct {
	self  map[int64]float64 // span ID → self time, ns
	root  map[int64]*span   // span ID → its root span
	names map[string][]*span
	roots []*span
}

func newTraceView(spans []span) *traceView {
	v := &traceView{self: selfTimes(spans), root: map[int64]*span{}, names: map[string][]*span{}}
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		r := s
		for r.Parent != 0 && byID[r.Parent] != nil {
			r = byID[r.Parent]
		}
		v.root[s.ID] = r
		v.names[s.Name] = append(v.names[s.Name], s)
		if s.Parent == 0 {
			v.roots = append(v.roots, s)
		}
	}
	return v
}

// under returns the spans named name whose root is named rootName.
func (v *traceView) under(name, rootName string) []*span {
	var out []*span
	for _, s := range v.names[name] {
		if v.root[s.ID].Name == rootName {
			out = append(out, s)
		}
	}
	return out
}

// layer returns the spans named name in the workload's own ops and
// set-up, leaving out the single-threaded baseline.
func (v *traceView) layer(name string) []*span {
	var out []*span
	for _, s := range v.names[name] {
		if v.root[s.ID].Name != "op.t1" {
			out = append(out, s)
		}
	}
	return out
}

func total(spans []*span, f func(*span) int64) float64 {
	t := 0.0
	for _, s := range spans {
		t += float64(f(s))
	}
	return t
}

func work(s *span) int64  { return s.Work }
func aux(s *span) int64   { return s.Aux }
func durNs(s *span) int64 { return s.dur() }
func durMs(spans []*span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}

// share is the self time of the named spans inside the workload's ops,
// over the ops' total duration.
func (v *traceView) share(names ...string) float64 {
	ops := 0.0
	for _, r := range v.roots {
		if r.Name == "op" {
			ops += float64(r.dur())
		}
	}
	self := 0.0
	for _, n := range names {
		for _, s := range v.under(n, "op") {
			self += v.self[s.ID]
		}
	}
	return self / ops
}

// perRoot is the mean count (or Work sum, when useWork) of spans per root
// that holds any, over at most the first 16 roots by request ID, so that
// it is an exact count for a given seed.
func (v *traceView) perRoot(spans []*span, useWork bool) float64 {
	byRoot := map[*span]float64{}
	for _, s := range spans {
		if useWork {
			byRoot[v.root[s.ID]] += float64(s.Work)
		} else {
			byRoot[v.root[s.ID]]++
		}
	}
	roots := make([]*span, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].Req != roots[j].Req {
			return roots[i].Req < roots[j].Req
		}
		return roots[i].Start < roots[j].Start
	})
	roots = roots[:min(16, len(roots))]
	t := 0.0
	for _, r := range roots {
		t += byRoot[r]
	}
	return t / float64(len(roots))
}

// speedup is the median, over ops traced both ways, of the single-threaded
// op's duration over the nproc op's. It is 0 when the ops do not reach
// layer, whose speed-up it stands for.
func (v *traceView) speedup(layer string) float64 {
	if len(v.under(layer, "op")) == 0 {
		return 0
	}
	wide := map[int64]*span{}
	for _, r := range v.roots {
		if r.Name == "op" && wide[r.Req] == nil {
			wide[r.Req] = r
		}
	}
	var ratios []float64
	seen := map[int64]bool{}
	for _, r := range v.roots {
		if w := wide[r.Req]; r.Name == "op.t1" && w != nil && !seen[r.Req] {
			seen[r.Req] = true
			ratios = append(ratios, float64(r.dur())/float64(w.dur()))
		}
	}
	return median(ratios)
}

// gatherStats returns, per scheduler gather with at least two shards, the
// max ÷ mean shard busy time and the share of worker time left idle.
func (v *traceView) gatherStats(gathers []*span) (imbalance, idle []float64) {
	kids := map[int64][]*span{}
	for _, s := range v.names["kernel"] {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for _, g := range gathers {
		ks := kids[g.ID]
		if len(ks) < 2 {
			continue
		}
		busy, most := 0.0, 0.0
		for _, k := range ks {
			d := float64(k.dur())
			busy += d
			most = math.Max(most, d)
		}
		imbalance = append(imbalance, most/(busy/float64(len(ks))))
		idle = append(idle, 1-busy/(float64(g.dur())*float64(g.Aux)))
	}
	return imbalance, idle
}

// layerMetricsFromTrace computes every per-layer metric. A metric of a
// layer the workload's ops and set-up do not reach is 0: a median or ratio
// over no spans reads as 0.
func layerMetricsFromTrace(rep *report, v *traceView, m *measures) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	dec := v.layer("decode")
	rep.set("decode.mb_per_s", 1e3*ratio(total(dec, work), total(dec, durNs)))
	rep.set("decode.share", v.share("decode"))
	pack := v.layer("pack")
	rep.set("pack.gnt_per_s", ratio(total(pack, work), total(pack, durNs)))
	rep.set("pack.share", v.share("pack", "pack.carry"))

	ks := v.layer("kernel")
	rep.set("kernel.cells", v.perRoot(ks, true))
	rep.set("kernel.gcells_per_s_core", ratio(total(ks, work), total(ks, durNs)))
	refGB := ratio(total(ks, aux), total(ks, durNs))
	rep.set("kernel.ref_gb_per_s", refGB)
	rep.set("kernel.roofline_frac", refGB/paperChannelGBps)
	rep.set("kernel.share", v.share("kernel"))

	rep.set("sched.shards", v.perRoot(ks, false))
	imb, idle := v.gatherStats(v.layer("sched.gather"))
	rep.set("sched.imbalance", median(imb))
	rep.set("sched.idle_frac", median(idle))
	rep.set("sched.speedup", v.speedup("sched.gather"))

	attr := v.layer("attr")
	rep.set("attr.keep_ratio", ratio(total(attr, aux), total(attr, work)))
	rep.set("attr.us_per_call", ratio(total(attr, durNs), float64(len(attr)))/1e3)
	rep.set("build.ms", median(durMs(v.names["build"])))
	rep.set("load.ms", median(durMs(v.names["load"])))
	rep.set("spine.overhead_ms", median(m.spine))

	chunks := v.layer("stream.chunk")
	rep.set("stream.chunks", v.perRoot(chunks, false))
	rep.set("stream.chunk_ms", median(durMs(chunks)))
	rep.set("stream.pack_latency_ms", ratio(float64(m.packSumNs), float64(m.packCount))/1e6)

	rep.set("tblastn.translate_ms", median(durMs(v.names["tblastn.translate"])))
	rep.set("tblastn.index_ms", median(durMs(v.layer("tblastn.index"))))
	scans := v.layer("tblastn.scan")
	rep.set("tblastn.scan_ms", median(durMs(scans)))
	rep.set("tblastn.speedup", v.speedup("tblastn.scan"))
	rep.set("tblastn.ext_yield", ratio(total(scans, aux), total(scans, work)))
	rep.set("tblastn.spec_ratio", ratio(float64(m.spec), float64(m.ext)))
	rep.set("tblastn.word_hits", ratio(float64(m.wordHits), float64(m.searches)))
	rep.set("tblastn.extensions", ratio(float64(m.ext), float64(m.searches)))

	handlers := v.names["serve.handler"]
	rep.set("serve.handler_ms", median(durMs(handlers)))
	var transport []float64
	for _, s := range v.names["serve.request"] {
		transport = append(transport, v.self[s.ID]/1e6)
	}
	rep.set("serve.transport_ms", median(transport))
	rep.set("admission.admitted", float64(m.admitted))
	rep.set("admission.shed", float64(m.shed))
	rep.set("rcache.hit_ratio", ratio(float64(m.rcHits), float64(m.rcHits+m.rcMisses)))
	rep.set("serve.cache_hit_share", ratio(float64(m.alignCacheHits), float64(m.alignCalls)))
	// Tracing overhead per op kind, so that a mix of cheap and costly
	// requests cannot tilt it; the median over kinds is reported.
	var over []float64
	for k, t := range m.traced {
		if p := m.plain[k]; len(p) > 0 && len(t) > 0 {
			over = append(over, median(t)/median(p)-1)
		}
	}
	rep.set("trace.overhead_frac", median(over))
}
