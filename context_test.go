package fabp_test

// Cancellation-semantics tests for the context-aware scan pipeline: a
// cancel mid-database-scan returns context.Canceled within a bounded
// time of the cancel (one shard boundary plus scheduling), leaks no pool
// goroutines, and leaves the database's planes consistent; a deadline
// on a slow stream reader surfaces context.DeadlineExceeded; and both
// aborts land on the align.canceled / align.deadline.exceeded counters.

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"fabp"
)

// waitQuiesce polls until the process goroutine count returns to (near)
// its baseline, failing the test if pool goroutines leaked.
func waitQuiesce(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC() // nudge finished goroutines off the books
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAlignDatabaseContextCancelMidScan cancels a sharded database scan
// mid-flight and pins the core contract of the issue: the call returns
// context.Canceled promptly (bounded latency between cancel and return),
// the remaining shards are shed, no pool goroutines leak, and a full
// rescan afterwards is bit-exact — the shared state the aborted scan
// touched is consistent.
func TestAlignDatabaseContextCancelMidScan(t *testing.T) {
	// A scalar scan over 2 Mnt in 32 knt shards: tens of shards, each
	// taking long enough that the watcher cancels well before the plan
	// finishes.
	ref, genes := fabp.SyntheticReference(21, 2<<20, 4, 60)
	dbase, err := fabp.DatabaseFromReference("cancel", ref)
	if err != nil {
		t.Fatal(err)
	}
	q, err := fabp.NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	newAligner := func(m *fabp.Metrics) *fabp.Aligner {
		opts := []fabp.AlignerOption{
			fabp.WithKernelType(fabp.KernelScalar),
			fabp.WithShardLen(1 << 15),
			fabp.WithParallelism(2),
		}
		if m != nil {
			opts = append(opts, fabp.WithTelemetry(m))
		}
		a, err := fabp.NewAligner(q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	golden := newAligner(nil).AlignDatabase(dbase)
	if len(golden) == 0 {
		t.Fatal("planted gene not found")
	}

	m := fabp.NewMetrics()
	a := newAligner(m)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cancel as soon as the first shard has completed.
	canceledAt := make(chan time.Time, 1)
	go func() {
		for m.Snapshot().Counters["scan.shards.run"] == 0 {
			time.Sleep(200 * time.Microsecond)
		}
		cancel()
		canceledAt <- time.Now()
	}()

	hits, err := a.AlignDatabaseContext(ctx, dbase)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AlignDatabaseContext = %v, want context.Canceled", err)
	}
	if hits != nil {
		t.Errorf("canceled scan returned %d hits, want nil", len(hits))
	}
	// Latency bound: the scan must return within one shard boundary of
	// the cancel — a shard here is a few ms; allow generous CI headroom
	// but stay far below the full-scan time with shards shed.
	if d := returned.Sub(<-canceledAt); d > 2*time.Second {
		t.Errorf("cancel-to-return latency %v, want one shard boundary", d)
	}
	s := m.Snapshot()
	if planned, run := s.Counters["scan.shards.planned"], s.Counters["scan.shards.run"]; run >= planned {
		t.Errorf("shards run %d of %d planned: cancel shed nothing", run, planned)
	}
	if got := s.Counters["align.canceled"]; got != 1 {
		t.Errorf("align.canceled = %d, want 1", got)
	}
	waitQuiesce(t, baseline)

	// The aborted scan must not have corrupted anything shared: the same
	// aligner rescans bit-exact.
	again, err := a.AlignDatabaseContext(context.Background(), dbase)
	if err != nil {
		t.Fatal(err)
	}
	assertRecordHitsEqual(t, golden, again)
}

// TestAlignDatabaseStreamContextCancelDuringEmit cancels from inside the
// emit callback — fully deterministic — and checks the abort surfaces as
// context.Canceled, the emitted hits are a position-ordered prefix, and
// the database's planes stay consistent for the next (bit-parallel)
// scan.
func TestAlignDatabaseStreamContextCancelDuringEmit(t *testing.T) {
	ref, genes := fabp.SyntheticReference(22, 300_000, 6, 40)
	dbase, err := fabp.DatabaseFromReference("stream-cancel", ref)
	if err != nil {
		t.Fatal(err)
	}
	q, err := fabp.NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	m := fabp.NewMetrics()
	a, err := fabp.NewAligner(q,
		fabp.WithTelemetry(m),
		fabp.WithKernelType(fabp.KernelBitParallel),
		fabp.WithShardLen(1<<12),
		fabp.WithParallelism(2),
		fabp.WithThresholdFraction(0.6))
	if err != nil {
		t.Fatal(err)
	}
	golden := a.AlignDatabase(dbase)
	if len(golden) < 2 {
		t.Fatalf("want at least 2 hits to cancel between, got %d", len(golden))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var streamed []fabp.RecordHit
	err = a.AlignDatabaseStreamContext(ctx, dbase, func(h fabp.RecordHit) error {
		streamed = append(streamed, h)
		cancel() // abort after the first hit
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AlignDatabaseStreamContext = %v, want context.Canceled", err)
	}
	if len(streamed) == 0 || len(streamed) >= len(golden) {
		t.Fatalf("streamed %d hits before cancel, want a strict prefix of %d", len(streamed), len(golden))
	}
	for i, h := range streamed {
		if h != golden[i] {
			t.Fatalf("streamed[%d] = %+v, want prefix of golden (%+v)", i, h, golden[i])
		}
	}
	if got := m.Snapshot().Counters["align.canceled"]; got != 1 {
		t.Errorf("align.canceled = %d, want 1", got)
	}

	// Planes consistent after the abort: a full streamed scan over
	// the same resident planes reproduces the golden hits.
	var after []fabp.RecordHit
	if err := a.AlignDatabaseStreamContext(context.Background(), dbase, func(h fabp.RecordHit) error {
		after = append(after, h)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	assertRecordHitsEqual(t, golden, after)
}

// slowReader delivers a trickle of valid nucleotides forever — the
// misbehaving upstream a deadline must cut loose.
type slowReader struct {
	delay time.Duration
}

func (r *slowReader) Read(p []byte) (int, error) {
	time.Sleep(r.delay)
	const letters = "ACGUACGUACGUACGU"
	n := copy(p, letters)
	return n, nil
}

// TestAlignStreamContextDeadlineSlowReader checks the chunk-boundary
// checkpoint of the streaming scan: a reader that trickles bytes cannot
// pin the scan past its deadline, for both the chunked bit-parallel path
// and the scalar engine's reader.
func TestAlignStreamContextDeadlineSlowReader(t *testing.T) {
	q, err := fabp.NewQuery("MKWVTFISLLFLFSSAYS")
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []fabp.Kernel{fabp.KernelBitParallel, fabp.KernelScalar} {
		m := fabp.NewMetrics()
		a, err := fabp.NewAligner(q, fabp.WithTelemetry(m), fabp.WithKernelType(kernel))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
		t0 := time.Now()
		err = a.AlignStreamContext(ctx, &slowReader{delay: 4 * time.Millisecond}, func(fabp.Hit) error {
			return nil
		})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("kernel %v: AlignStreamContext = %v, want context.DeadlineExceeded", kernel, err)
		}
		if d := time.Since(t0); d > 3*time.Second {
			t.Errorf("kernel %v: deadline honored after %v, want ~40ms", kernel, d)
		}
		if got := m.Snapshot().Counters["align.deadline.exceeded"]; got != 1 {
			t.Errorf("kernel %v: align.deadline.exceeded = %d, want 1", kernel, got)
		}
	}
}

// TestAlignContextMatchesAlign proves the cancelable sharded path of
// AlignContext is bit-exact with the single-pass Align for both kernels
// (a cancelable-but-never-canceled context must change nothing but the
// execution plan).
func TestAlignContextMatchesAlign(t *testing.T) {
	ref, genes := fabp.SyntheticReference(23, 150_000, 3, 30)
	q, err := fabp.NewQuery(genes[1].Protein)
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []fabp.Kernel{fabp.KernelScalar, fabp.KernelBitParallel} {
		a, err := fabp.NewAligner(q, fabp.WithKernelType(kernel), fabp.WithShardLen(1<<12))
		if err != nil {
			t.Fatal(err)
		}
		want := a.Align(ref)
		ctx, cancel := context.WithCancel(context.Background())
		got, err := a.AlignContext(ctx, ref)
		cancel()
		if err != nil {
			t.Fatalf("kernel %v: AlignContext = %v", kernel, err)
		}
		if len(got) != len(want) {
			t.Fatalf("kernel %v: sharded path %d hits, single-pass %d", kernel, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("kernel %v: hit %d = %+v, want %+v", kernel, i, got[i], want[i])
			}
		}
	}
}

// TestPreCanceledContexts: every context entry point refuses an
// already-done context with its error, before any scan work.
func TestPreCanceledContexts(t *testing.T) {
	ref, genes := fabp.SyntheticReference(24, 4000, 1, 20)
	dbase, err := fabp.DatabaseFromReference("pre", ref)
	if err != nil {
		t.Fatal(err)
	}
	q, err := fabp.NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	m := fabp.NewMetrics()
	a, err := fabp.NewAligner(q, fabp.WithTelemetry(m))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := a.AlignContext(ctx, ref); !errors.Is(err, context.Canceled) {
		t.Errorf("AlignContext = %v, want context.Canceled", err)
	}
	if _, err := a.AlignDatabaseContext(ctx, dbase); !errors.Is(err, context.Canceled) {
		t.Errorf("AlignDatabaseContext = %v, want context.Canceled", err)
	}
	if err := a.AlignDatabaseStreamContext(ctx, dbase, func(fabp.RecordHit) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("AlignDatabaseStreamContext = %v, want context.Canceled", err)
	}
	if err := a.AlignStreamContext(ctx, io.LimitReader(&slowReader{}, 100), func(fabp.Hit) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("AlignStreamContext = %v, want context.Canceled", err)
	}
	if got := m.Snapshot().Counters["align.canceled"]; got != 4 {
		t.Errorf("align.canceled = %d, want 4", got)
	}

	// Session variants go through the shared pool and default registry.
	sess, err := fabp.NewSession(dbase)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.RunContext(ctx, q, 0.8); !errors.Is(err, context.Canceled) {
		t.Errorf("Session.RunContext = %v, want context.Canceled", err)
	}
	if _, _, err := sess.RunBatchContext(ctx, []*fabp.Query{q}, 0.8); !errors.Is(err, context.Canceled) {
		t.Errorf("Session.RunBatchContext = %v, want context.Canceled", err)
	}

	// A batch in which no query fits the reference (50 aa = 150 elements
	// against 130 nt) has nothing to scan, but still aborts and counts.
	short, _ := fabp.SyntheticReference(25, 130, 0, 0)
	long, err := fabp.NewQuery(strings.Repeat("MKWVTFISLL", 5))
	if err != nil {
		t.Fatal(err)
	}
	before := fabp.DefaultMetrics().Snapshot().Counters["align.canceled"]
	if out, err := fabp.AlignBatchContext(ctx, []*fabp.Query{long}, short, 0.8); !errors.Is(err, context.Canceled) || out != nil {
		t.Errorf("AlignBatchContext on a too-short reference = %d lists, %v; want nil, context.Canceled", len(out), err)
	}
	if got := fabp.DefaultMetrics().Snapshot().Counters["align.canceled"] - before; got != 1 {
		t.Errorf("align.canceled delta = %d, want 1", got)
	}
}

// TestSessionRunContextLive: an unfired context changes nothing — the
// session still finds the planted gene with full timing decomposition.
func TestSessionRunContextLive(t *testing.T) {
	ref, genes := fabp.SyntheticReference(25, 50_000, 2, 30)
	dbase, err := fabp.DatabaseFromReference("sess", ref)
	if err != nil {
		t.Fatal(err)
	}
	q, err := fabp.NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := fabp.NewSession(dbase)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	hits, timing, err := sess.RunContext(ctx, q, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Error("planted gene not found through RunContext")
	}
	if timing.Total <= 0 {
		t.Errorf("timing = %+v, want positive total", timing)
	}
}

// TestAlignDatabaseBatchContextCancelMidScan cancels a fused batch scan
// mid-flight and pins the batch cancellation contract: the call returns
// context.Canceled promptly, the remaining shards are shed for every
// query of the batch at once (one shard is the whole batch's unit of
// work), no pool goroutines leak, and a full rescan afterwards is
// bit-exact — the database's planes survive the abort.
func TestAlignDatabaseBatchContextCancelMidScan(t *testing.T) {
	// 8 Mnt at the default shard size → ~32 fused shards, each scanning
	// all six queries, so the watcher cancels well before the plan drains.
	ref, genes := fabp.SyntheticReference(31, 8<<20, 6, 60)
	dbase, err := fabp.DatabaseFromReference("batchcancel", ref)
	if err != nil {
		t.Fatal(err)
	}
	var queries []*fabp.Query
	for _, g := range genes {
		q, err := fabp.NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	golden, err := fabp.AlignDatabaseBatch(dbase, queries, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	for qi, hits := range golden {
		if len(hits) == 0 {
			t.Fatalf("query %d: planted gene not found", qi)
		}
	}

	// The batch paths report on the process-wide collector; measure deltas
	// around the canceled call.
	m := fabp.DefaultMetrics()
	s0 := m.Snapshot().Counters
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cancel as soon as the first fused shard has completed.
	canceledAt := make(chan time.Time, 1)
	go func() {
		for m.Snapshot().Counters["scan.shards.run"] == s0["scan.shards.run"] {
			time.Sleep(200 * time.Microsecond)
		}
		cancel()
		canceledAt <- time.Now()
	}()

	out, err := fabp.AlignDatabaseBatchContext(ctx, dbase, queries, 0.85)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AlignDatabaseBatchContext = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Errorf("canceled batch returned %d hit lists, want nil", len(out))
	}
	if d := returned.Sub(<-canceledAt); d > 2*time.Second {
		t.Errorf("cancel-to-return latency %v, want one shard boundary", d)
	}
	s1 := m.Snapshot().Counters
	planned := s1["scan.shards.planned"] - s0["scan.shards.planned"]
	run := s1["scan.shards.run"] - s0["scan.shards.run"]
	if run >= planned {
		t.Errorf("shards run %d of %d planned: cancel shed nothing", run, planned)
	}
	if got := s1["align.canceled"] - s0["align.canceled"]; got != 1 {
		t.Errorf("align.canceled delta = %d, want 1", got)
	}
	if got := s1["batch.queries"] - s0["batch.queries"]; got != uint64(len(queries)) {
		t.Errorf("batch.queries delta = %d, want %d", got, len(queries))
	}
	waitQuiesce(t, baseline)

	// The aborted batch must not have corrupted the database's planes or
	// pooled kernel scratch: a fresh batch rescans bit-exact.
	again, err := fabp.AlignDatabaseBatch(dbase, queries, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range golden {
		assertRecordHitsEqual(t, golden[qi], again[qi])
	}
}

func assertRecordHitsEqual(t *testing.T, want, got []fabp.RecordHit) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("hit count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("hit %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
