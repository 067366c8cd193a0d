package fabp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// enableScanCache turns the result cache on for one test and restores the
// disabled default (dropping every entry) afterward.
func enableScanCache(t *testing.T, capBytes int64) {
	t.Helper()
	SetScanCacheCapacity(capBytes)
	t.Cleanup(func() { SetScanCacheCapacity(0) })
}

// TestScanRequestValidation walks the request surface field by field:
// every invalid shape must fail with an error that names the offending
// field and matches the right taxonomy head via errors.Is.
func TestScanRequestValidation(t *testing.T) {
	ref, genes := SyntheticReference(3, 10_000, 1, 20)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	db, err := DatabaseFromReference("synt", ref)
	if err != nil {
		t.Fatal(err)
	}
	valid := ScanRequest{Query: q, Reference: ref}

	cases := []struct {
		name string
		req  ScanRequest
		want error  // taxonomy head for errors.Is
		frag string // substring naming the field
	}{
		{"nil query", ScanRequest{Reference: ref}, ErrBadQuery, "ScanRequest.Query"},
		{"no target", ScanRequest{Query: q}, ErrBadOption, "exactly one target"},
		{"both targets", ScanRequest{Query: q, Reference: ref, Database: db}, ErrBadOption, "exactly one target"},
		{"unknown kernel", ScanRequest{Query: q, Reference: ref, Kernel: Kernel(42)}, ErrBadOption, "ScanRequest.Kernel"},
		{"negative shard len", ScanRequest{Query: q, Reference: ref, ShardLen: -1}, ErrBadOption, "ScanRequest.ShardLen"},
		{"negative max hits", ScanRequest{Query: q, Reference: ref, MaxHits: -5}, ErrBadOption, "ScanRequest.MaxHits"},
		{"threshold conflict", ScanRequest{Query: q, Reference: ref, Threshold: ptrInt(10), ThresholdFrac: 0.5}, ErrBadOption, "conflict"},
		{"threshold too high", ScanRequest{Query: q, Reference: ref, Threshold: ptrInt(q.MaxScore() + 1)}, ErrBadOption, "ScanRequest.Threshold"},
		{"negative threshold", ScanRequest{Query: q, Reference: ref, Threshold: ptrInt(-1)}, ErrBadOption, "ScanRequest.Threshold"},
		{"fraction above one", ScanRequest{Query: q, Reference: ref, ThresholdFrac: 1.5}, ErrBadOption, "ScanRequest.ThresholdFrac"},
		{"negative fraction", ScanRequest{Query: q, Reference: ref, ThresholdFrac: -0.2}, ErrBadOption, "ScanRequest.ThresholdFrac"},
		{"bad retry policy", ScanRequest{Query: q, Reference: ref, RetryPolicy: RetryPolicy{MaxRetries: -1}}, ErrBadOption, "MaxRetries"},
		{"query and queries", ScanRequest{Query: q, Queries: []*Query{q}, Reference: ref}, ErrBadOption, "ScanRequest.Queries"},
		{"empty queries", ScanRequest{Queries: []*Query{}, Reference: ref}, ErrBadQuery, "ScanRequest.Queries"},
		{"nil batch entry", ScanRequest{Queries: []*Query{q, nil}, Reference: ref}, ErrBadQuery, "index 1"},
		{"scalar batch", ScanRequest{Queries: []*Query{q, q}, Reference: ref, Kernel: KernelScalar}, ErrBadOption, "ScanRequest.Kernel"},
		{"batch absolute threshold", ScanRequest{Queries: []*Query{q, q}, Reference: ref, Threshold: ptrInt(3)}, ErrBadOption, "ScanRequest.Threshold"},
		{"stream without emit", ScanRequest{Query: q, Stream: strings.NewReader("ACGU")}, ErrBadOption, "ScanRequest.Emit"},
		{"emit without stream", ScanRequest{Query: q, Reference: ref, Emit: emitNone}, ErrBadOption, "ScanRequest.Emit"},
		{"stream and reference", ScanRequest{Query: q, Reference: ref, Stream: strings.NewReader("ACGU"), Emit: emitNone}, ErrBadOption, "exactly one target"},
		{"partial stream", ScanRequest{Query: q, Stream: strings.NewReader("ACGU"), Emit: emitNone, Partial: true}, ErrBadOption, "ScanRequest.Partial"},
		{"capped stream", ScanRequest{Query: q, Stream: strings.NewReader("ACGU"), Emit: emitNone, MaxHits: 3}, ErrBadOption, "ScanRequest.MaxHits"},
		{"protein batch", ScanRequest{Queries: []*Query{q}, Reference: ref, ProteinSearch: &ProteinSearchOptions{}}, ErrBadOption, "ScanRequest.Queries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Scan(context.Background(), tc.req)
			if err == nil {
				t.Fatal("invalid request accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, not errors.Is(%v)", err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("error %q does not name the field (%q)", err, tc.frag)
			}
			// Invalid requests never hit the cache probe either.
			if _, ok := CachedScan(tc.req); ok {
				t.Error("CachedScan returned a result for an invalid request")
			}
		})
	}

	if _, err := Scan(context.Background(), valid); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

func ptrInt(v int) *int { return &v }

func emitNone(int, Hit) error { return nil }

// TestScanQueriesPerQuery: a Queries request answers each query exactly as
// its own one-query Scan does, index-aligned in PerQuery with its own
// threshold; MaxHits clips every query; the request bypasses an enabled
// cache and counts on batch.*.
func TestScanQueriesPerQuery(t *testing.T) {
	enableScanCache(t, 8<<20)
	ref, genes := SyntheticReference(19, 40_000, 3, 25)
	var queries []*Query
	for _, g := range genes {
		q, err := NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	ctx := context.Background()
	before := DefaultMetrics().Snapshot().Counters
	res, err := Scan(ctx, ScanRequest{Queries: queries, Reference: ref, ThresholdFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	after := DefaultMetrics().Snapshot().Counters
	if res.Cache != CacheBypass || res.Hits != nil || res.RecordHits != nil {
		t.Fatalf("Queries result: cache %s, top-level hits %v/%v", res.Cache, res.Hits, res.RecordHits)
	}
	if got := after["batch.queries"] - before["batch.queries"]; got != uint64(len(queries)) {
		t.Errorf("batch.queries moved by %d, want %d", got, len(queries))
	}
	if len(res.PerQuery) != len(queries) {
		t.Fatalf("%d answers for %d queries", len(res.PerQuery), len(queries))
	}
	most := 0
	for i, q := range queries {
		one, err := Scan(ctx, ScanRequest{Query: q, Reference: ref, ThresholdFrac: 0.5, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.PerQuery[i].Threshold != one.Threshold {
			t.Errorf("query %d: threshold %d, one-query scan %d", i, res.PerQuery[i].Threshold, one.Threshold)
		}
		assertHitsEqual(t, fmt.Sprintf("query %d", i), one.Hits, res.PerQuery[i].Hits)
		most = max(most, len(one.Hits))
	}
	if most < 2 {
		t.Fatal("too few hits to test truncation")
	}
	capped, err := Scan(ctx, ScanRequest{Queries: queries, Reference: ref, ThresholdFrac: 0.5, MaxHits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Truncated {
		t.Error("MaxHits clipped a query but Truncated is false")
	}
	for i, qh := range capped.PerQuery {
		if len(qh.Hits) > 1 {
			t.Errorf("query %d: %d hits over MaxHits 1", i, len(qh.Hits))
		}
		if len(res.PerQuery[i].Hits) > 1 && len(qh.Hits) != 1 {
			t.Errorf("query %d: clipped to %d hits, want 1", i, len(qh.Hits))
		}
	}
}

// TestScanMatchesLegacy pins the wrapper contract: Scan and the legacy
// Align*/AlignDatabase* entrypoints are one spine, so their hits are
// identical for every kernel and both target shapes.
func TestScanMatchesLegacy(t *testing.T) {
	ref, genes := SyntheticReference(11, 30_000, 2, 25)
	db, err := DatabaseFromReference("synt", ref)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []Kernel{KernelAuto, KernelScalar, KernelBitParallel} {
		a, err := NewAligner(q, WithKernelType(kernel))
		if err != nil {
			t.Fatal(err)
		}

		legacyHits := a.Align(ref)
		res, err := Scan(context.Background(), ScanRequest{Query: q, Reference: ref, Kernel: kernel})
		if err != nil {
			t.Fatalf("%v reference scan: %v", kernel, err)
		}
		if res.Threshold != a.Threshold() {
			t.Errorf("%v: Scan threshold %d, legacy %d", kernel, res.Threshold, a.Threshold())
		}
		if len(res.Hits) != len(legacyHits) {
			t.Fatalf("%v: Scan %d hits, legacy %d", kernel, len(res.Hits), len(legacyHits))
		}
		for i := range legacyHits {
			if res.Hits[i] != legacyHits[i] {
				t.Errorf("%v hit %d: Scan %+v, legacy %+v", kernel, i, res.Hits[i], legacyHits[i])
			}
		}

		legacyRec := a.AlignDatabase(db)
		dres, err := Scan(context.Background(), ScanRequest{Query: q, Database: db, Kernel: kernel})
		if err != nil {
			t.Fatalf("%v database scan: %v", kernel, err)
		}
		if len(dres.RecordHits) != len(legacyRec) {
			t.Fatalf("%v: Scan %d record hits, legacy %d", kernel, len(dres.RecordHits), len(legacyRec))
		}
		for i := range legacyRec {
			if dres.RecordHits[i] != legacyRec[i] {
				t.Errorf("%v record hit %d: Scan %+v, legacy %+v", kernel, i, dres.RecordHits[i], legacyRec[i])
			}
		}
	}
}

// TestScanMaxHitsTruncation: MaxHits clips per request while the cache
// keeps complete results, so a capped request never poisons a later
// uncapped one.
func TestScanMaxHitsTruncation(t *testing.T) {
	enableScanCache(t, 8<<20)
	ref, genes := SyntheticReference(17, 30_000, 3, 20)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	req := ScanRequest{Query: q, Reference: ref, ThresholdFrac: 0.5}

	full, err := Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Hits) < 2 {
		t.Skipf("only %d hits at this threshold; truncation needs 2+", len(full.Hits))
	}

	capped := req
	capped.MaxHits = 1
	res, err := Scan(context.Background(), capped)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || !res.Truncated {
		t.Fatalf("capped scan: %d hits truncated=%v, want 1/true", len(res.Hits), res.Truncated)
	}
	if res.Cache != CacheHit {
		t.Errorf("capped repeat came back %q, want %q", res.Cache, CacheHit)
	}

	// The cache still holds the complete result.
	again, err := Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Hits) != len(full.Hits) || again.Truncated {
		t.Fatalf("uncapped repeat: %d hits truncated=%v, want %d/false", len(again.Hits), again.Truncated, len(full.Hits))
	}
}

// TestScanStormCollapses is the acceptance storm: 100 goroutines issue the
// identical request concurrently, and the process-wide counters must
// prove exactly ONE scan ran — align.queries.started advances by one, the
// cache counts one miss, and every caller gets hits byte-identical to the
// uncached oracle.
func TestScanStormCollapses(t *testing.T) {
	ref, genes := SyntheticReference(23, 1<<20, 2, 30)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	req := ScanRequest{Query: q, Reference: ref}

	// Oracle first, uncached.
	oracle, err := Scan(context.Background(), ScanRequest{Query: q, Reference: ref, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle.Hits) == 0 {
		t.Fatal("oracle found no hits; the storm would be vacuous")
	}

	enableScanCache(t, 32<<20)
	queriesBefore := DefaultMetrics().Snapshot().Counters["align.queries.started"]
	cacheBefore := ScanCacheSnapshot()

	const n = 100
	results := make([]*ScanResult, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = Scan(context.Background(), req)
		}(i)
	}
	close(start)
	wg.Wait()

	queriesAfter := DefaultMetrics().Snapshot().Counters["align.queries.started"]
	if got := queriesAfter - queriesBefore; got != 1 {
		t.Fatalf("storm ran %d scans, want exactly 1", got)
	}
	cacheAfter := ScanCacheSnapshot()
	if misses := cacheAfter.Misses - cacheBefore.Misses; misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}
	if joined := (cacheAfter.Collapsed - cacheBefore.Collapsed) + (cacheAfter.Hits - cacheBefore.Hits); joined != n-1 {
		t.Errorf("collapsed+hits = %d, want %d", joined, n-1)
	}

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("storm caller %d: %v", i, errs[i])
		}
		res := results[i]
		switch res.Cache {
		case CacheMiss, CacheShared, CacheHit:
		default:
			t.Fatalf("caller %d outcome %q", i, res.Cache)
		}
		if len(res.Hits) != len(oracle.Hits) {
			t.Fatalf("caller %d: %d hits, oracle %d", i, len(res.Hits), len(oracle.Hits))
		}
		for j := range oracle.Hits {
			if res.Hits[j] != oracle.Hits[j] {
				t.Fatalf("caller %d hit %d: %+v, oracle %+v", i, j, res.Hits[j], oracle.Hits[j])
			}
		}
	}
}

// TestScanEvictionConformance hammers a deliberately tiny cache with a
// rotating query set across every kernel: constant eviction pressure must
// never change a single hit — each answer equals the uncached oracle.
func TestScanEvictionConformance(t *testing.T) {
	ref, genes := SyntheticReference(29, 40_000, 4, 20)
	queries := make([]*Query, len(genes))
	oracles := make(map[string][]Hit)
	for i, g := range genes {
		q, err := NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
		res, err := Scan(context.Background(), ScanRequest{Query: q, Reference: ref, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		oracles[g.Protein] = res.Hits
	}

	// ~1.5 entries' worth of capacity: every insertion evicts.
	enableScanCache(t, 600)
	before := ScanCacheSnapshot()
	for round := 0; round < 6; round++ {
		for i, q := range queries {
			for _, kernel := range []Kernel{KernelAuto, KernelScalar, KernelBitParallel} {
				res, err := Scan(context.Background(), ScanRequest{Query: q, Reference: ref, Kernel: kernel})
				if err != nil {
					t.Fatalf("round %d query %d kernel %v: %v", round, i, kernel, err)
				}
				want := oracles[genes[i].Protein]
				if len(res.Hits) != len(want) {
					t.Fatalf("round %d query %d kernel %v: %d hits, oracle %d",
						round, i, kernel, len(res.Hits), len(want))
				}
				for j := range want {
					if res.Hits[j] != want[j] {
						t.Fatalf("round %d query %d kernel %v hit %d: %+v, oracle %+v",
							round, i, kernel, j, res.Hits[j], want[j])
					}
				}
			}
		}
	}
	after := ScanCacheSnapshot()
	if after.Evictions == before.Evictions {
		t.Error("no evictions under pressure; the conformance run is vacuous")
	}
	if after.ResidentBytes > after.CapacityBytes {
		t.Errorf("resident %d bytes exceeds capacity %d", after.ResidentBytes, after.CapacityBytes)
	}
}

// TestScanLeaderCancelHandsOff drives the singleflight handoff through
// the public API: the initiating caller cancels mid-scan while a second
// identical request is attached — the scan must complete for the waiter,
// the waiter's hits must match the oracle, and the leader must see its
// own cancellation.
func TestScanLeaderCancelHandsOff(t *testing.T) {
	// Forced-scalar over 4M nt: slow enough that cancellation reliably
	// lands while the scan is in flight.
	ref, genes := SyntheticReference(31, 4<<20, 2, 30)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	req := ScanRequest{Query: q, Reference: ref, Kernel: KernelScalar}
	oracle, err := Scan(context.Background(), ScanRequest{Query: q, Reference: ref, Kernel: KernelScalar, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}

	enableScanCache(t, 32<<20)
	base := ScanCacheSnapshot()

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan error, 1)
	go func() {
		_, err := Scan(leaderCtx, req)
		leaderDone <- err
	}()

	// Wait for the leader's flight, then attach the waiter.
	waitCounter(t, func() bool { return ScanCacheSnapshot().Misses > base.Misses }, "leader flight")
	waiterDone := make(chan *ScanResult, 1)
	waiterErr := make(chan error, 1)
	go func() {
		res, err := Scan(context.Background(), req)
		waiterDone <- res
		waiterErr <- err
	}()
	waitCounter(t, func() bool { return ScanCacheSnapshot().Collapsed > base.Collapsed }, "waiter join")

	cancelLeader()
	leaderErr := <-leaderDone
	res, werr := <-waiterDone, <-waiterErr
	if werr != nil {
		t.Fatalf("waiter: %v", werr)
	}
	if len(res.Hits) != len(oracle.Hits) {
		t.Fatalf("waiter got %d hits, oracle %d", len(res.Hits), len(oracle.Hits))
	}
	for i := range oracle.Hits {
		if res.Hits[i] != oracle.Hits[i] {
			t.Fatalf("waiter hit %d: %+v, oracle %+v", i, res.Hits[i], oracle.Hits[i])
		}
	}
	if errors.Is(leaderErr, context.Canceled) {
		// The handoff happened: the canceled leader left a live flight to
		// the waiter, and the result landed in the cache afterward.
		if got := ScanCacheSnapshot().Handoffs - base.Handoffs; got != 1 {
			t.Errorf("handoffs = %d, want 1", got)
		}
		if cached, ok := CachedScan(req); !ok {
			t.Error("handed-off result not cached")
		} else if len(cached.Hits) != len(oracle.Hits) {
			t.Errorf("cached result %d hits, oracle %d", len(cached.Hits), len(oracle.Hits))
		}
	} else if leaderErr != nil {
		t.Fatalf("leader: %v", leaderErr)
	} else {
		// The scan beat the cancellation; nothing to assert about handoff,
		// but the run must say so rather than pass silently green.
		t.Log("scan completed before cancellation; handoff path not exercised this run")
	}
}

// TestScanPartialNeverCached: a degraded result is delivered to its
// requester but must not answer a later clean request.
func TestScanPartialNeverCached(t *testing.T) {
	enableScanCache(t, 8<<20)
	ref, genes := SyntheticReference(37, 20_000, 1, 20)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	req := ScanRequest{Query: q, Reference: ref, Partial: true}
	res, err := Scan(context.Background(), req)
	if err != nil {
		t.Fatalf("partial-mode clean scan: %v", err)
	}
	if res.Cache != CacheBypass {
		t.Errorf("partial request outcome %q, want %q", res.Cache, CacheBypass)
	}
	if _, ok := CachedScan(req); ok {
		t.Error("CachedScan answered a partial-mode request")
	}
	clean := ScanRequest{Query: q, Reference: ref}
	if _, ok := CachedScan(clean); ok {
		t.Error("partial-mode scan seeded the cache")
	}
}

// TestCachedScanProbe: the non-blocking probe answers only resident hits
// — never by scanning, joining, or queueing.
func TestCachedScanProbe(t *testing.T) {
	enableScanCache(t, 8<<20)
	ref, genes := SyntheticReference(41, 20_000, 1, 20)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	req := ScanRequest{Query: q, Reference: ref}

	queriesBefore := DefaultMetrics().Snapshot().Counters["align.queries.started"]
	if _, ok := CachedScan(req); ok {
		t.Fatal("probe hit on an empty cache")
	}
	if got := DefaultMetrics().Snapshot().Counters["align.queries.started"] - queriesBefore; got != 0 {
		t.Fatalf("probe ran %d scans", got)
	}

	seeded, err := Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := CachedScan(req)
	if !ok {
		t.Fatal("probe missed a resident result")
	}
	if res.Cache != CacheHit {
		t.Errorf("probe outcome %q, want %q", res.Cache, CacheHit)
	}
	if len(res.Hits) != len(seeded.Hits) {
		t.Fatalf("probe %d hits, seeded %d", len(res.Hits), len(seeded.Hits))
	}
}

// waitCounter polls cond with a deadline; the label names what never
// happened on failure.
func waitCounter(t *testing.T, cond func() bool, label string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", label)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScanCacheInvalidationByContent: the key is the content digest, so
// two references with different content never alias — no explicit
// invalidation exists or is needed.
func TestScanCacheInvalidationByContent(t *testing.T) {
	enableScanCache(t, 8<<20)
	refA, genes := SyntheticReference(43, 20_000, 1, 20)
	refB, _ := SyntheticReference(44, 20_000, 1, 20)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(context.Background(), ScanRequest{Query: q, Reference: refA}); err != nil {
		t.Fatal(err)
	}
	if _, ok := CachedScan(ScanRequest{Query: q, Reference: refA}); !ok {
		t.Fatal("refA result not resident")
	}
	if _, ok := CachedScan(ScanRequest{Query: q, Reference: refB}); ok {
		t.Fatal("refB aliased refA's cache entry")
	}

	resB, err := Scan(context.Background(), ScanRequest{Query: q, Reference: refB})
	if err != nil {
		t.Fatal(err)
	}
	if resB.Cache != CacheMiss {
		t.Errorf("refB first scan outcome %q, want %q", resB.Cache, CacheMiss)
	}
}
