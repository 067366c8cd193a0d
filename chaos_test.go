// chaos_test.go is the chaos-conformance arm of the differential oracle:
// the same scans that must be bit-exact across kernels must ALSO be
// bit-exact under seeded fault injection once retries absorb the injected
// failures — and in partial mode, the declared failed ranges must cover
// exactly the shards whose injections fired, nothing more or less.
package fabp

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fabp/internal/bitpar"
	"fabp/internal/faultinject"
	"fabp/internal/sched"
)

// chaosRetryPolicy absorbs every transient injected failure of the chaos
// plans below (KeyLimit 2 < MaxRetries 3) with microsecond backoff so the
// suite stays fast.
var chaosRetryPolicy = RetryPolicy{MaxRetries: 3, Base: 10 * time.Microsecond, Cap: time.Millisecond, Seed: 5}

// waitGoroutineBaseline polls until the goroutine count settles back to
// its pre-test level — the no-leak assertion of every chaos run.
func waitGoroutineBaseline(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines %d -> %d after chaos run; scan goroutines leaked", before, runtime.NumGoroutine())
}

// assertPoolIdle checks the shared pool's gauges read zero — every slot
// returned, no queued or running stragglers.
func assertPoolIdle(t *testing.T) {
	t.Helper()
	snap := DefaultMetrics().Snapshot()
	for _, g := range []string{"pool.tasks.queued", "pool.tasks.running"} {
		if v := snap.Gauges[g]; v != 0 {
			t.Fatalf("%s = %d after chaos run, want 0", g, v)
		}
	}
}

// TestChaosConformanceSeededFaultInjection runs the differential oracle
// under seeded fault injection with retries enabled: 100 scans across
// every scan path — cancelable reference scan, the aligner's and a
// request's database gather, fused batch — each with per-shard fault
// probability 0.1 (plus merge stalls and eviction storms on the database
// planes), then AlignStream over multi-shard chunks, and every one must
// be byte-identical to its fault-free oracle.
// Afterwards goroutines and pool slots are back at baseline.
func TestChaosConformanceSeededFaultInjection(t *testing.T) {
	before := runtime.NumGoroutine()
	ref, genes := SyntheticReference(77, 80_000, 4, 25)
	dbase, err := DatabaseFromReference("chaos", ref)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]*Query, 0, len(genes))
	for _, g := range genes {
		bq, err := NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, bq)
	}

	// Fault-free oracles, one per path.
	oracle := mustConformAligner(t, q, WithThresholdFraction(0.7), WithShardLen(2048))
	wantHits := oracle.Align(ref)
	wantRec := oracle.AlignDatabase(dbase)
	wantRes, err := Scan(context.Background(), ScanRequest{Queries: queries, Reference: ref, ThresholdFrac: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if len(wantHits) == 0 || len(wantRec) == 0 {
		t.Fatal("oracle found no hits; chaos conformance is vacuous")
	}

	// Seeded chaos: transient shard-dispatch failures (KeyLimit under the
	// retry budget, so every shard recovers), merge stalls, eviction
	// storms on the database's planes, and stream-read faults.
	faultinject.Enable(1234, faultinject.Plan{
		faultinject.SiteShardDispatch: {Prob: 0.1, KeyLimit: 2, Fail: true},
		faultinject.SiteShardMerge:    {Prob: 0.05, Delay: 100 * time.Microsecond},
		faultinject.SiteCacheEvict:    {Every: 7, Fail: true},
		faultinject.SiteStreamRead:    {Prob: 0.1, KeyLimit: 2, Fail: true},
	})
	defer faultinject.Disable()

	a := mustConformAligner(t, q, WithThresholdFraction(0.7), WithShardLen(2048),
		WithRetryPolicy(chaosRetryPolicy))
	scans := 0
	for round := 0; round < 25; round++ {
		// Path 1: cancelable reference scan (shard scheduler).
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		got, err := a.AlignContext(ctx, ref)
		cancel()
		if err != nil {
			t.Fatalf("round %d AlignContext: %v", round, err)
		}
		assertHitsEqual(t, "chaos AlignContext", wantHits, got)
		scans++

		// Path 2: database gather.
		rec, err := a.AlignDatabaseContext(context.Background(), dbase)
		if err != nil {
			t.Fatalf("round %d AlignDatabaseContext: %v", round, err)
		}
		assertRecordHitsEqual(t, "chaos AlignDatabase", wantRec, rec)
		scans++

		// Path 3: a request's database gather, its executor built from
		// the ScanRequest rather than the aligner.
		dbRes, err := Scan(context.Background(), ScanRequest{
			Query: q, Database: dbase, ThresholdFrac: 0.7, ShardLen: 2048, RetryPolicy: chaosRetryPolicy,
		})
		if err != nil {
			t.Fatalf("round %d Scan{Database}: %v", round, err)
		}
		assertRecordHitsEqual(t, "chaos Scan{Database}", wantRec, dbRes.RecordHits)
		scans++

		// Path 4: fused batch under the request's policy.
		res, err := Scan(context.Background(), ScanRequest{
			Queries: queries, Reference: ref, ThresholdFrac: 0.7, RetryPolicy: chaosRetryPolicy,
		})
		if err != nil {
			t.Fatalf("round %d Scan{Queries}: %v", round, err)
		}
		for qi, want := range wantRes.PerQuery {
			assertHitsEqual(t, "chaos Scan{Queries}", want.Hits, res.PerQuery[qi].Hits)
		}
		scans++
	}
	if scans != 100 {
		t.Fatalf("ran %d scans, want 100", scans)
	}
	if faultinject.Fired(faultinject.SiteShardDispatch) == 0 {
		t.Fatal("dispatch site never fired; the chaos run tested nothing")
	}
	if faultinject.Fired(faultinject.SiteCacheEvict) == 0 {
		t.Fatal("eviction site never fired; the database scans never repacked")
	}
	if DefaultMetrics().Snapshot().Counters["scan.retries"] == 0 {
		t.Fatal("no retries recorded; injected failures were not absorbed by the retry layer")
	}

	// Path 5: AlignStream over multi-shard chunks. The stream is longer
	// than two default shards, so its chunks fan out through the gather
	// under the aligner's retry policy. A fresh plan restores the per-key
	// fire budgets the rounds above spent.
	streamStr := strings.Repeat(ref.String(), 2*sched.DefaultShardLen/ref.Len()+1)
	faultinject.Disable()
	streamRef, err := NewReference(streamStr)
	if err != nil {
		t.Fatal(err)
	}
	wantStream := oracle.Align(streamRef)
	faultinject.Enable(4321, faultinject.Plan{
		faultinject.SiteShardDispatch: {Prob: 0.5, KeyLimit: 2, Fail: true},
	})
	retriesBefore := DefaultMetrics().Snapshot().Counters["scan.retries"]
	for run := 0; run < 2; run++ {
		var streamed []Hit
		if err := a.AlignStream(strings.NewReader(streamStr), func(h Hit) error {
			streamed = append(streamed, h)
			return nil
		}); err != nil {
			t.Fatalf("run %d AlignStream: %v", run, err)
		}
		assertHitsEqual(t, "chaos AlignStream", wantStream, streamed)
	}
	if faultinject.Fired(faultinject.SiteShardDispatch) == 0 {
		t.Fatal("AlignStream shards never passed the dispatch hook")
	}
	if DefaultMetrics().Snapshot().Counters["scan.retries"] == retriesBefore {
		t.Fatal("AlignStream shard faults were not retried")
	}

	faultinject.Disable()
	waitGoroutineBaseline(t, before)
	assertPoolIdle(t)
}

// assertRecordHitsEqual is assertHitsEqual for attributed hits.
func assertRecordHitsEqual(t *testing.T, label string, want, got []RecordHit) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: hit %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestPartialResultsExactShardCoverage pins the partial-result contract:
// with sticky injections (shards that fail every attempt, exhausting any
// retry budget) and WithPartialResults, the scan completes, the
// *PartialError's ranges are exactly the shards whose injections fired
// (faultinject.FiredKeys), and the returned hits are exactly the oracle's
// hits outside those ranges.
func TestPartialResultsExactShardCoverage(t *testing.T) {
	ref, genes := SyntheticReference(31, 80_000, 4, 25)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	const shardLen = 2048
	oracle := mustConformAligner(t, q, WithThresholdFraction(0.7), WithShardLen(shardLen))
	want := oracle.Align(ref)
	if len(want) == 0 {
		t.Fatal("oracle found no hits; coverage check is vacuous")
	}
	q1, err := NewQuery(genes[1].Protein)
	if err != nil {
		t.Fatal(err)
	}
	oracle1 := mustConformAligner(t, q1, WithThresholdFraction(0.7), WithShardLen(shardLen))
	want1 := oracle1.Align(ref)

	faultinject.Enable(55, faultinject.Plan{
		faultinject.SiteShardDispatch: {Prob: 0.3, Sticky: true, Fail: true},
	})
	defer faultinject.Disable()

	a := mustConformAligner(t, q, WithThresholdFraction(0.7), WithShardLen(shardLen),
		WithRetryPolicy(RetryPolicy{MaxRetries: 1, Base: 10 * time.Microsecond}),
		WithPartialResults())
	hits, err := a.AlignContext(context.Background(), ref)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("sticky faults under partial mode returned %v, want *PartialError", err)
	}
	if !strings.Contains(pe.Error(), "partial scan") {
		t.Fatalf("PartialError message %q", pe.Error())
	}

	// The failed ranges must be exactly the sticky-fired shards.
	shards := sched.Plan(ref.Len()-q.Elements()+1, shardLen)
	firedKeys := faultinject.FiredKeys(faultinject.SiteShardDispatch)
	if len(firedKeys) == 0 || len(firedKeys) == len(shards) {
		t.Fatalf("sticky plan fired on %d/%d shards; want a proper subset", len(firedKeys), len(shards))
	}
	if len(pe.Failed) != len(firedKeys) {
		t.Fatalf("PartialError lists %d ranges, injections fired on %d shards", len(pe.Failed), len(firedKeys))
	}
	failedSet := make(map[int]bool)
	for i, key := range firedKeys {
		s := shards[key]
		if pe.Failed[i].Lo != s.Lo || pe.Failed[i].Hi != s.Hi {
			t.Fatalf("range %d = [%d,%d), want shard %d's [%d,%d)",
				i, pe.Failed[i].Lo, pe.Failed[i].Hi, key, s.Lo, s.Hi)
		}
		if !errors.Is(pe.Failed[i].Err, faultinject.ErrInjected) {
			t.Fatalf("range %d error %v is not the injected fault", i, pe.Failed[i].Err)
		}
		failedSet[int(key)] = true
	}

	// Hits = oracle hits outside the failed ranges, in order.
	inFailed := func(pos int) bool {
		for _, r := range pe.Failed {
			if pos >= r.Lo && pos < r.Hi {
				return true
			}
		}
		return false
	}
	var surviving []Hit
	for _, h := range want {
		if !inFailed(h.Pos) {
			surviving = append(surviving, h)
		}
	}
	assertHitsEqual(t, "partial surviving hits", surviving, hits)
	if len(hits) == len(want) {
		t.Fatal("no oracle hits fell in failed ranges; the filter check is vacuous — pick a different seed")
	}

	// A query whose hit sits in a surviving shard comes back complete —
	// degradation drops only the failed ranges, not the whole scan.
	a1 := mustConformAligner(t, q1, WithThresholdFraction(0.7), WithShardLen(shardLen),
		WithRetryPolicy(RetryPolicy{MaxRetries: 1, Base: 10 * time.Microsecond}),
		WithPartialResults())
	hits1, err := a1.AlignContext(context.Background(), ref)
	if !errors.As(err, &pe) {
		t.Fatalf("surviving-shard query returned %v, want *PartialError", err)
	}
	if len(want1) == 0 || failedSet[genes[1].Pos/shardLen] {
		t.Fatal("gene 1 does not sit in a surviving shard; the survivor check is vacuous")
	}
	assertHitsEqual(t, "surviving-shard query", want1, hits1)

	if DefaultMetrics().Snapshot().Counters["scan.partial"] == 0 {
		t.Fatal("scan.partial not counted")
	}
}

// TestAlignBothStrandsUnderFaults pins AlignBothStrands, which has no
// error return, under fault injection: with a recovering plan and a retry
// policy its hits equal the fault-free scan's; with sticky shard failures
// each strand completes on its surviving shards — exactly the fault-free
// hits outside the failed shards — and counts on scan.partial.
func TestAlignBothStrandsUnderFaults(t *testing.T) {
	ref, genes := SyntheticReference(31, 80_000, 4, 25)
	g := genes[0]
	m := 3 * len(g.Protein)
	seq := ref.String()
	const rcPos = 60_000 // plant gene 0 reverse-complemented as well
	ref, err := NewReference(seq[:rcPos] + reverseComplementString(seq[g.Pos:g.Pos+m]) + seq[rcPos+m:])
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(g.Protein)
	if err != nil {
		t.Fatal(err)
	}
	const shardLen = 2048
	want := mustConformAligner(t, q, WithThresholdFraction(0.7), WithShardLen(shardLen)).AlignBothStrands(ref)
	strands := map[Strand]bool{}
	for _, h := range want {
		strands[h.Strand] = true
	}
	if len(strands) != 2 {
		t.Fatalf("oracle hits on %d strands, want both", len(strands))
	}
	assertStrandHitsEqual := func(label string, want, got []StrandHit) {
		t.Helper()
		if len(want) != len(got) {
			t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: hit %d = %+v, want %+v", label, i, got[i], want[i])
			}
		}
	}

	// Transient faults: the retry policy recovers every shard.
	faultinject.Enable(1234, faultinject.Plan{
		faultinject.SiteShardDispatch: {Prob: 0.2, KeyLimit: 2, Fail: true},
	})
	defer faultinject.Disable()
	a := mustConformAligner(t, q, WithThresholdFraction(0.7), WithShardLen(shardLen),
		WithRetryPolicy(chaosRetryPolicy))
	assertStrandHitsEqual("recovered AlignBothStrands", want, a.AlignBothStrands(ref))
	if faultinject.Fired(faultinject.SiteShardDispatch) == 0 {
		t.Fatal("AlignBothStrands shards never passed the dispatch hook")
	}

	// Sticky faults and no retries: both strands degrade. Keys are shard
	// indices, so shard k fails on both strands.
	faultinject.Enable(55, faultinject.Plan{
		faultinject.SiteShardDispatch: {Prob: 0.3, Sticky: true, Fail: true},
	})
	tel := NewMetrics()
	a = mustConformAligner(t, q, WithThresholdFraction(0.7), WithShardLen(shardLen), WithTelemetry(tel))
	got := a.AlignBothStrands(ref)
	shards := sched.Plan(ref.Len()-m+1, shardLen)
	failed := func(start int) bool {
		for _, key := range faultinject.FiredKeys(faultinject.SiteShardDispatch) {
			if start >= shards[key].Lo && start < shards[key].Hi {
				return true
			}
		}
		return false
	}
	var surviving []StrandHit
	for _, h := range want {
		start := h.Pos // the window start on its own strand
		if h.Strand == StrandReverse {
			start = ref.Len() - h.Pos - m
		}
		if !failed(start) {
			surviving = append(surviving, h)
		}
	}
	if len(surviving) == len(want) {
		t.Fatal("no oracle hit fell in a failed shard; the degradation check is vacuous")
	}
	assertStrandHitsEqual("degraded AlignBothStrands", surviving, got)
	if n := tel.Snapshot().Counters["scan.partial"]; n != 2 {
		t.Fatalf("scan.partial = %d, want 2 (one per degraded strand)", n)
	}
}

// TestChaosNonPartialShardFailureFailsScan: without WithPartialResults an
// unrecoverable (sticky, budget-exhausting) shard failure fails the whole
// scan with the shard range named — no silent hit loss.
func TestChaosNonPartialShardFailureFailsScan(t *testing.T) {
	ref, genes := SyntheticReference(31, 80_000, 4, 25)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(55, faultinject.Plan{
		faultinject.SiteShardDispatch: {Prob: 0.3, Sticky: true, Fail: true},
	})
	defer faultinject.Disable()

	a := mustConformAligner(t, q, WithThresholdFraction(0.7), WithShardLen(2048),
		WithRetryPolicy(RetryPolicy{MaxRetries: 1, Base: 10 * time.Microsecond}))
	hits, err := a.AlignContext(context.Background(), ref)
	if err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("sticky faults without partial mode: err = %v, want the injected failure", err)
	}
	if !strings.Contains(err.Error(), "shard [") {
		t.Fatalf("failure %q does not name the shard range", err)
	}
	if hits != nil {
		t.Fatalf("failed scan returned %d hits; must return none", len(hits))
	}
}

// TestChaosDBSectionLoadInjection: the db.section.load hook turns a load
// into a corrupt-database failure that matches both the public corruption
// sentinel and the injection sentinel.
func TestChaosDBSectionLoadInjection(t *testing.T) {
	ref, _ := SyntheticReference(9, 4_000, 2, 20)
	dbase, err := DatabaseFromReference("dbfault", ref)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := dbase.SaveDatabase(&buf); err != nil {
		t.Fatal(err)
	}

	faultinject.Enable(1, faultinject.Plan{faultinject.SiteDBSection: {Nth: 1, Fail: true}})
	defer faultinject.Disable()
	if _, err := LoadDatabase(strings.NewReader(buf.String())); !errors.Is(err, ErrCorruptDatabase) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected section fault: %v, want ErrCorruptDatabase wrapping the injection", err)
	}
	// The nth trigger has passed: the very next load succeeds unchanged.
	if _, err := LoadDatabase(strings.NewReader(buf.String())); err != nil {
		t.Fatalf("load after the injection window: %v", err)
	}
}

// TestChaosPlaneEvictionStorm: eviction-storm injections drop a
// database's planes before every scan, forcing one repack per scan
// (counted by bitpar.PackCount), but never change scan results.
func TestChaosPlaneEvictionStorm(t *testing.T) {
	ref, genes := SyntheticReference(13, 80_000, 3, 25)
	d, err := DatabaseFromReference("storm", ref)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	a := mustConformAligner(t, q, WithThresholdFraction(0.7), WithKernelType(KernelBitParallel))
	want := a.AlignDatabase(d)
	if len(want) == 0 {
		t.Fatal("no hits; the storm test is vacuous")
	}

	packs := bitpar.PackCount()
	faultinject.Enable(3, faultinject.Plan{faultinject.SiteCacheEvict: {Every: 1, Fail: true}})
	defer faultinject.Disable()
	for i := 0; i < 3; i++ {
		assertRecordHitsEqual(t, "eviction-storm AlignDatabase", want, a.AlignDatabase(d))
	}
	faultinject.Disable()
	if n := bitpar.PackCount() - packs; n != 3 {
		t.Fatalf("3 scans under the storm packed %d times, want 3 (one repack per eviction)", n)
	}
}

// TestChaosEvictPlanesDuringScans: EvictPlanes racing scans of the same
// database never changes a result — a running scan keeps the planes it
// read, and the next scan repacks. Both kernels and a fused batch scan
// while another goroutine evicts; run it under -race.
func TestChaosEvictPlanesDuringScans(t *testing.T) {
	ref, genes := SyntheticReference(17, 120_000, 3, 25)
	d, err := DatabaseFromReference("evict", ref)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]*Query, len(genes))
	for i, g := range genes {
		if queries[i], err = NewQuery(g.Protein); err != nil {
			t.Fatal(err)
		}
	}
	aligners := []*Aligner{
		mustConformAligner(t, queries[0], WithThresholdFraction(0.7), WithShardLen(8192), WithParallelism(2)),
		mustConformAligner(t, queries[0], WithThresholdFraction(0.7), WithShardLen(8192), WithKernelType(KernelScalar)),
	}
	want := aligners[0].AlignDatabase(d)
	wantBatch, err := AlignDatabaseBatchContext(context.Background(), d, queries, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no hits; the eviction race is vacuous")
	}

	packs := bitpar.PackCount()
	stop := make(chan struct{})
	evicted := make(chan struct{})
	go func() {
		defer close(evicted)
		for {
			select {
			case <-stop:
				return
			default:
				d.EvictPlanes()
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if w == 3 {
					got, err := AlignDatabaseBatchContext(context.Background(), d, queries, 0.7)
					if err != nil {
						t.Error(err)
						return
					}
					for qi := range wantBatch {
						if !slices.Equal(got[qi], wantBatch[qi]) {
							t.Errorf("batch query %d differs while planes are evicted", qi)
						}
					}
					continue
				}
				a := aligners[w%len(aligners)]
				if got := a.AlignDatabase(d); !slices.Equal(got, want) {
					t.Errorf("%s AlignDatabase differs while planes are evicted", a.Kernel())
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-evicted
	if n := bitpar.PackCount() - packs; n < 2 {
		t.Fatalf("16 scans racing EvictPlanes packed %d times; the evictions never forced a repack", n)
	}
}
