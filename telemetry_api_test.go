package fabp

import (
	"encoding/json"
	"strings"
	"testing"

	"fabp/internal/bitpar"
)

// TestOptionValidationBoundaries pins the documented validation rules:
// negative parallelism and shard lengths are errors (zero means default),
// and WithTelemetry rejects nil collectors.
func TestOptionValidationBoundaries(t *testing.T) {
	q, err := NewQuery("MKLV")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		opt     AlignerOption
		wantErr bool
	}{
		{"parallelism -1", WithParallelism(-1), true},
		{"parallelism 0 (default)", WithParallelism(0), false},
		{"parallelism 1", WithParallelism(1), false},
		{"shard len -5", WithShardLen(-5), true},
		{"shard len 0 (default)", WithShardLen(0), false},
		{"shard len 64", WithShardLen(64), false},
		{"nil telemetry", WithTelemetry(nil), true},
		{"private telemetry", WithTelemetry(NewMetrics()), false},
	}
	for _, tc := range cases {
		_, err := NewAligner(q, tc.opt)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
	}
}

// TestWithTelemetryPrivateCollector runs a sharded database scan on an
// aligner with a private collector and checks that the books balance:
// shards run == shards planned == pool tasks completed, hits counted
// exactly, one packing of the cold database for the whole sharded scan,
// and nothing leaked into the process-wide collector.
func TestWithTelemetryPrivateCollector(t *testing.T) {
	ref, genes := SyntheticReference(11, 6000, 2, 20)
	dbase, err := DatabaseFromReference("tm", ref)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	a, err := NewAligner(q, WithTelemetry(m), WithKernelType(KernelBitParallel),
		WithShardLen(64), WithParallelism(2), WithThresholdFraction(0.8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics() != m {
		t.Fatal("Aligner.Metrics() must return the WithTelemetry collector")
	}

	d0 := DefaultMetrics().Snapshot()
	packs := bitpar.PackCount()
	hits := a.AlignDatabase(dbase)
	if len(hits) == 0 {
		t.Fatal("planted gene not found")
	}
	d1 := DefaultMetrics().Snapshot()
	s := m.Snapshot()

	if got := s.Counters["align.queries.started"]; got != 1 {
		t.Errorf("queries started %d, want 1", got)
	}
	if got := s.Counters["align.hits.emitted"]; got != uint64(len(hits)) {
		t.Errorf("hits emitted %d, want %d", got, len(hits))
	}
	planned, run := s.Counters["scan.shards.planned"], s.Counters["scan.shards.run"]
	if planned < 2 || run != planned {
		t.Errorf("shards run %d != planned %d (want several)", run, planned)
	}
	if got := s.Counters["pool.tasks.completed"]; got != planned {
		t.Errorf("pool completed %d tasks, want %d (one per shard)", got, planned)
	}
	if got := bitpar.PackCount() - packs; got != 1 {
		t.Errorf("the sharded scan of a cold database packed %d times, want 1", got)
	}
	if got := s.Counters["align.kernel.bitparallel"]; got != 1 {
		t.Errorf("bitparallel dispatches %d, want 1", got)
	}
	if got := s.Latencies["align.latency"].Count; got != 1 {
		t.Errorf("align latency count %d, want 1", got)
	}
	if got := s.Latencies["scan.shard.latency"].Count; got != planned {
		t.Errorf("shard latency count %d, want %d", got, planned)
	}
	for _, g := range []string{"pool.tasks.queued", "pool.tasks.running"} {
		if v := s.Gauges[g]; v != 0 {
			t.Errorf("gauge %s = %d after quiesce, want 0", g, v)
		}
	}
	// The private aligner must not have reported into the default registry.
	if d1.Counters["align.queries.started"] != d0.Counters["align.queries.started"] {
		t.Error("private aligner leaked queries into DefaultMetrics")
	}

	// The snapshot must round-trip as JSON (the expvar contract).
	var decoded MetricsSnapshot
	if err := json.Unmarshal([]byte(m.String()), &decoded); err != nil {
		t.Fatalf("String() is not valid JSON: %v", err)
	}
	if decoded.Counters["scan.shards.run"] != run {
		t.Error("JSON round-trip lost counters")
	}

	m.Reset()
	s = m.Snapshot()
	if s.Counters["align.queries.started"] != 0 || s.Latencies["align.latency"].Count != 0 {
		t.Errorf("Reset left data: %+v", s.Counters)
	}
}

// TestStreamChunkCarryCounters checks the chunk/carry beat counters of the
// streaming scan: with the chunk clamped to its minimum (m+2 letters) a
// long reference must restart at many carry boundaries, and the scan stays
// bit-exact regardless (conformance is covered by FuzzAlignConformance).
// The counters live on the chunked bit-parallel path; the scalar path
// streams through the engine's own reader.
func TestStreamChunkCarryCounters(t *testing.T) {
	ref, genes := SyntheticReference(13, 3000, 1, 10)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	a, err := NewAligner(q, WithTelemetry(m), WithKernelType(KernelBitParallel))
	if err != nil {
		t.Fatal(err)
	}
	defer func(old int) { streamChunkLetters = old }(streamChunkLetters)
	streamChunkLetters = q.Elements() + 2

	var hits int
	if err := a.AlignStream(strings.NewReader(ref.String()), func(Hit) error {
		hits++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	chunks, carries := s.Counters["stream.chunks.processed"], s.Counters["stream.carry.restarts"]
	if carries < 10 {
		t.Errorf("carry restarts %d, want many at minimum chunk size", carries)
	}
	if chunks < carries {
		t.Errorf("chunks %d < carries %d", chunks, carries)
	}
	if got := s.Counters["align.hits.emitted"]; got != uint64(hits) {
		t.Errorf("hits emitted %d, want %d", got, hits)
	}
	if got := s.Counters["align.queries.started"]; got != 1 {
		t.Errorf("queries started %d, want 1", got)
	}
}
