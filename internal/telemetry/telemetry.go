// Package telemetry is the measurement substrate of the FabP pipeline: a
// lock-cheap registry of named counters, gauges and fixed-bucket latency
// histograms that the aligner, the shard scheduler, the result cache and
// the chunked stream scanner write into while they run — the software
// rendering of the per-stage throughput/utilization counters FPGA designs
// expose beside each pipeline stage.
//
// Design contract (load-bearing; see DESIGN.md):
//
//   - Every hot-path write is a single atomic RMW (histograms: three).
//     There is no lock on the write path; registration (name → metric
//     lookup) takes a read lock and is meant to be done once, at
//     construction time, with the returned pointer cached by the caller.
//   - All metric methods are nil-receiver safe no-ops, so instrumented
//     code never branches on "is telemetry on" — a disabled metric is a
//     nil pointer and costs one predicted branch.
//   - Snapshot is eventually consistent, not a linearizable cut: counters
//     read while writers run may be mutually off by in-flight updates
//     (a histogram's Count can momentarily disagree with its bucket sum).
//     Every individual value is monotone between Resets.
package telemetry

import (
	"context"
	"encoding/json"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on a nil receiver).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (queue depth, resident bytes); it moves
// both ways.
type Gauge struct{ v atomic.Int64 }

// Set stores an absolute level. Safe on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by delta (negative to decrease). Safe on nil.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current level (0 on a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBounds are the histogram bucket upper bounds in
// nanoseconds: powers of four from 1 µs to ~1 s, plus an implicit
// overflow bucket. Fixed buckets keep Observe allocation-free and
// snapshots mergeable across processes.
var DefaultLatencyBounds = []int64{
	1_000, 4_000, 16_000, 64_000, 256_000, // 1 µs … 256 µs
	1_024_000, 4_096_000, 16_384_000, 65_536_000, // 1 ms … 65 ms
	262_144_000, 1_048_576_000, // 262 ms, ~1 s
}

// Histogram is a fixed-bucket latency histogram. Observations land in the
// first bucket whose upper bound (ns) is >= the value; larger ones land
// in the overflow bucket. Count and Sum track totals exactly.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1; last = overflow
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

func newHistogram(bounds []int64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration. Safe on a nil receiver.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= ns })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Count returns the observation count (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the summed observations in nanoseconds (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry is a name-keyed set of metrics. The zero value is not usable;
// call NewRegistry. A nil *Registry is a valid "telemetry off" registry:
// every lookup returns a nil metric whose methods no-op.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry — where the shared scheduler
// pool and every aligner without a private WithTelemetry registry report.
func Default() *Registry { return defaultRegistry }

// Counter returns (registering on first use) the named counter. Nil
// registry → nil counter (methods no-op).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named latency
// histogram with DefaultLatencyBounds.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram(DefaultLatencyBounds)
		r.histograms[name] = h
	}
	return h
}

// Bucket is one histogram bucket in a snapshot. UpperNs < 0 marks the
// overflow bucket.
type Bucket struct {
	UpperNs int64  `json:"le_ns"`
	Count   uint64 `json:"count"`
}

// HistogramSnapshot is a histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	SumNs   int64    `json:"sum_ns"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// MeanNs returns the mean observation in nanoseconds (0 when empty).
func (h HistogramSnapshot) MeanNs() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.SumNs) / float64(h.Count)
}

// Snapshot is a registry's state at one moment (see the package contract:
// eventually consistent under concurrent writers). It marshals to the
// same JSON String renders, so it can be published via expvar.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric. Nil registry → empty (but
// non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{Count: h.count.Load(), SumNs: h.sum.Load()}
		for i := range h.counts {
			upper := int64(-1)
			if i < len(h.bounds) {
				upper = h.bounds[i]
			}
			if n := h.counts[i].Load(); n > 0 {
				hs.Buckets = append(hs.Buckets, Bucket{UpperNs: upper, Count: n})
			}
		}
		s.Histograms[name] = hs
	}
	return s
}

// Reset zeroes every registered metric (registrations survive, so cached
// metric pointers stay valid). No-op on a nil registry.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.histograms {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
	}
}

// String renders the snapshot as JSON — the expvar.Var contract, so a
// registry can be published on /debug/vars with expvar.Publish("fabp", r).
func (r *Registry) String() string {
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Labeled runs fn on the current goroutine with the pprof label key=value
// attached, so CPU and goroutine profiles attribute worker time to the
// pipeline stage that scheduled it (`go tool pprof -tagfocus`).
func Labeled(key, value string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels(key, value), func(context.Context) { fn() })
}
