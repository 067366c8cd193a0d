package fabp

import (
	"context"
	"encoding/json"
	"errors"
	"time"

	"fabp/internal/telemetry"
)

// Metrics is a handle on a telemetry registry — the instrument panel of
// the alignment pipeline. Aligners report into the process-wide
// DefaultMetrics unless NewAligner was given a private collector with
// WithTelemetry; the shared shard pool and the scan-result cache always
// report process-wide (they are process-wide resources).
//
// Counter names (see README "Observability" for the full catalogue):
//
//	align.queries.started    scans begun (Scan, Align*/AlignStream*/AlignDatabase*, Session)
//	align.hits.emitted       hits returned or streamed to emit
//	align.kernel.scalar      scans dispatched to the scalar engine
//	align.kernel.bitparallel scans dispatched to the bit-parallel kernel
//	align.canceled           scans aborted by context cancellation
//	align.deadline.exceeded  scans aborted by a context deadline
//	scan.shards.planned      shards the scheduler tiled
//	scan.shards.run          shards that executed (== planned when quiet)
//	stream.chunks.processed  chunks (beats) scanned by AlignStream and Stream ScanRequests
//	stream.carry.restarts    chunk-boundary carries of the streaming scan
//	stream.planes.packed_words plane words packed by the streaming packer
//	batch.queries            queries scanned through the fused batch path
//	batch.fused_passes       fused tile passes (each replacing K per-query passes)
//	batch.plane_bytes_saved  plane bytes NOT re-read thanks to fusion: (K−1)×planes
//	db.load.planes_reused    LoadDatabase calls resolved warm (persisted planes)
//	db.load.planes_packed    LoadDatabase calls whose first scan must pack in-process
//	scan.retries             shard/chunk attempts re-run under a RetryPolicy
//	scan.hedged              hedged duplicate shards launched for stragglers
//	scan.partial             scans that completed degraded (WithPartialResults, AlignBothStrands)
//	faultinject.fired        fault-injection rules that fired (process-wide)
//	pool.tasks.*             worker-pool counters/gauges (process-wide pool)
//	rcache.*                 scan-result cache stats, merged from the shared
//	                         cache (rcache.collapsed counts requests that
//	                         joined an in-flight identical scan;
//	                         rcache.handoffs counts flights a canceled
//	                         initiator handed off to surviving waiters)
//	admission.*              fabp-serve admission queue: admitted,
//	                         shed.capacity, shed.deadline counters, wait
//	                         histogram, held/queue.depth/estimate.ns gauges
//
// Latency histograms: align.latency (whole calls), scan.shard.latency
// (per shard), batch.kernel.latency (whole fused batch scans — its SumNs
// is the batch path's kernel-seconds attribution), stream.pack.latency
// (per-chunk bit-plane packing, the streaming pack tax), pool.task.wait
// and pool.task.run (scheduler).
//
// All hot-path updates are single atomic operations; see DESIGN.md for
// the atomicity/overhead contract.
type Metrics struct {
	reg *telemetry.Registry
}

// NewMetrics builds a private collector to pass to WithTelemetry, for
// callers that want per-workload rather than process-wide numbers.
func NewMetrics() *Metrics { return &Metrics{reg: telemetry.NewRegistry()} }

var defaultMetrics = &Metrics{reg: telemetry.Default()}

// DefaultMetrics returns the process-wide collector: every aligner
// without a private WithTelemetry collector, the shared shard pool, and
// every Scan not run by an aligner (batches, streams, Session) report here.
func DefaultMetrics() *Metrics { return defaultMetrics }

// LatencyBucket is one histogram bucket; UpperNs < 0 marks the overflow
// bucket (observations above every configured bound).
type LatencyBucket struct {
	UpperNs int64  `json:"le_ns"`
	Count   uint64 `json:"count"`
}

// LatencySnapshot is a latency histogram's state at snapshot time.
type LatencySnapshot struct {
	Count   uint64          `json:"count"`
	SumNs   int64           `json:"sum_ns"`
	Buckets []LatencyBucket `json:"buckets,omitempty"`
}

// MeanNs returns the mean observed latency in nanoseconds (0 when empty).
func (l LatencySnapshot) MeanNs() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.SumNs) / float64(l.Count)
}

// MetricsSnapshot is a point-in-time view of a collector. It is
// eventually consistent under concurrent scans (each value is atomically
// read, but the set is not one cut); every counter is monotone between
// Resets.
type MetricsSnapshot struct {
	Counters  map[string]uint64          `json:"counters"`
	Gauges    map[string]int64           `json:"gauges"`
	Latencies map[string]LatencySnapshot `json:"latencies"`
}

// Snapshot captures every metric, merging the scan-result cache's stats
// under rcache.* (the cache is process-wide, so those numbers are global
// even on a private collector).
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := m.reg.Snapshot()
	out := MetricsSnapshot{
		Counters:  s.Counters,
		Gauges:    s.Gauges,
		Latencies: make(map[string]LatencySnapshot, len(s.Histograms)),
	}
	for name, h := range s.Histograms {
		ls := LatencySnapshot{Count: h.Count, SumNs: h.SumNs}
		for _, b := range h.Buckets {
			ls.Buckets = append(ls.Buckets, LatencyBucket{UpperNs: b.UpperNs, Count: b.Count})
		}
		out.Latencies[name] = ls
	}
	rs := scanResults.Stats()
	out.Counters["rcache.hits"] = rs.Hits
	out.Counters["rcache.misses"] = rs.Misses
	out.Counters["rcache.evictions"] = rs.Evictions
	out.Counters["rcache.collapsed"] = rs.Collapsed
	out.Counters["rcache.handoffs"] = rs.Handoffs
	out.Gauges["rcache.entries"] = int64(rs.Entries)
	out.Gauges["rcache.resident.bytes"] = rs.ResidentBytes
	out.Gauges["rcache.capacity.bytes"] = rs.CapacityBytes
	return out
}

// Reset zeroes the collector's metrics and the scan-result cache's
// cumulative counters (resident cache entries stay resident). Metric
// identities survive, so concurrent scans keep reporting.
func (m *Metrics) Reset() {
	m.reg.Reset()
	scanResults.ResetStats()
}

// String renders the snapshot as JSON — the expvar.Var contract, so a
// collector can be served on /debug/vars via expvar.Publish("fabp", m).
func (m *Metrics) String() string {
	b, err := json.Marshal(m.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// MarshalJSON marshals the current snapshot.
func (m *Metrics) MarshalJSON() ([]byte, error) { return json.Marshal(m.Snapshot()) }

// alignerMetrics holds an aligner's pre-resolved metric handles so the
// scan paths pay only atomic updates (every field is nil-safe; the zero
// value records nothing).
type alignerMetrics struct {
	queries, hits              *telemetry.Counter
	kernelScalar, kernelBitpar *telemetry.Counter
	shardsPlanned, shardsRun   *telemetry.Counter
	chunks, carries            *telemetry.Counter
	packWords                  *telemetry.Counter
	canceled, deadline         *telemetry.Counter
	alignLatency, shardLatency *telemetry.Histogram
	packLatency                *telemetry.Histogram

	batchQueries, batchFusedPasses *telemetry.Counter
	batchPlaneBytesSaved           *telemetry.Counter
	batchKernelLatency             *telemetry.Histogram

	retries, hedged, partial *telemetry.Counter
}

func newAlignerMetrics(reg *telemetry.Registry) alignerMetrics {
	return alignerMetrics{
		queries:       reg.Counter("align.queries.started"),
		hits:          reg.Counter("align.hits.emitted"),
		kernelScalar:  reg.Counter("align.kernel.scalar"),
		kernelBitpar:  reg.Counter("align.kernel.bitparallel"),
		shardsPlanned: reg.Counter("scan.shards.planned"),
		shardsRun:     reg.Counter("scan.shards.run"),
		chunks:        reg.Counter("stream.chunks.processed"),
		carries:       reg.Counter("stream.carry.restarts"),
		packWords:     reg.Counter("stream.planes.packed_words"),
		canceled:      reg.Counter("align.canceled"),
		deadline:      reg.Counter("align.deadline.exceeded"),
		alignLatency:  reg.Histogram("align.latency"),
		shardLatency:  reg.Histogram("scan.shard.latency"),
		packLatency:   reg.Histogram("stream.pack.latency"),

		batchQueries:         reg.Counter("batch.queries"),
		batchFusedPasses:     reg.Counter("batch.fused_passes"),
		batchPlaneBytesSaved: reg.Counter("batch.plane_bytes_saved"),
		batchKernelLatency:   reg.Histogram("batch.kernel.latency"),

		retries: reg.Counter("scan.retries"),
		hedged:  reg.Counter("scan.hedged"),
		partial: reg.Counter("scan.partial"),
	}
}

// recordCtxErr classifies a scan's terminal error: cancellations and
// deadline expiries each count on their own counter (other errors are the
// caller's to observe). Called once per aborted scan, at the public API
// boundary.
func (tm *alignerMetrics) recordCtxErr(err error) {
	switch {
	case errors.Is(err, context.Canceled):
		tm.canceled.Inc()
	case errors.Is(err, context.DeadlineExceeded):
		tm.deadline.Inc()
	}
}

// kernelChosen records one dispatch decision.
func (tm *alignerMetrics) kernelChosen(bitparallel bool) {
	if bitparallel {
		tm.kernelBitpar.Inc()
	} else {
		tm.kernelScalar.Inc()
	}
}

// observeSince records d = now - t0 on h; a helper so call sites stay one
// line.
func observeSince(h *telemetry.Histogram, t0 time.Time) { h.Observe(time.Since(t0)) }

// defaultAlignerTM instruments the scans no aligner runs (Scan, the batch
// functions, Session), which have no per-aligner collector.
var defaultAlignerTM = newAlignerMetrics(telemetry.Default())

// Warm-start accounting: how LoadDatabase calls resolved. A "reused" load
// scans without any PackReference work (its file carried valid planes); a
// "packed" load pays one in-process packing before its first scan.
var (
	dbLoadPlanesReused = telemetry.Default().Counter("db.load.planes_reused")
	dbLoadPlanesPacked = telemetry.Default().Counter("db.load.planes_packed")
)
