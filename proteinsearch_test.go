package fabp

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fabp/internal/tblastn"
)

// proteinFixture plants mutated copies of a query protein in a synthetic
// reference and returns the prepared pair.
func proteinFixture(t *testing.T, seed int64, refLen int) (*Query, *Reference) {
	t.Helper()
	ref, genes := SyntheticReference(seed, refLen, 3, 30)
	mut, _, err := MutateProtein(seed+1, genes[0].Protein, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(mut)
	if err != nil {
		t.Fatal(err)
	}
	return q, ref
}

// TestSearchProteinMatchesSerialOracle is the acceptance criterion:
// protein search through the Scan spine must be byte-identical to the
// serial tblastn pipeline for Threads ∈ {1, 4, 8}, TwoHit on and off —
// HSPs and stats both.
func TestSearchProteinMatchesSerialOracle(t *testing.T) {
	q, ref := proteinFixture(t, 31, 60_000)
	for _, twoHit := range []bool{false, true} {
		oracle, oStats, err := tblastn.Search(q.protein, ref.d.Seq(), tblastn.Options{Threads: 1, TwoHit: twoHit})
		if err != nil {
			t.Fatal(err)
		}
		want := hspsFromInternal(oracle)
		for _, threads := range []int{1, 4, 8} {
			res, err := Scan(context.Background(), ScanRequest{
				Query: q, Reference: ref,
				ProteinSearch: &ProteinSearchOptions{Threads: threads, TwoHit: twoHit},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.HSPs, want) {
				t.Fatalf("twoHit=%v threads=%d: spine HSPs diverge from serial oracle (%d vs %d)",
					twoHit, threads, len(res.HSPs), len(want))
			}
			got := *res.ProteinStats
			if got != (ProteinSearchStats{
				IndexEntries: oStats.IndexEntries, WordLookups: oStats.WordLookups,
				WordHits: oStats.WordHits, Extensions: oStats.Extensions, HSPs: oStats.HSPs,
			}) {
				t.Fatalf("twoHit=%v threads=%d: stats diverge: %+v vs %+v", twoHit, threads, got, oStats)
			}
		}
	}
}

// TestScanProteinRequestValidation pins the option surface: nucleotide
// knobs are rejected with ErrBadOption, bad pipeline options too, and
// errors flow through the usual taxonomy.
func TestScanProteinRequestValidation(t *testing.T) {
	q, ref := proteinFixture(t, 32, 9_000)
	ps := func(o ProteinSearchOptions) *ProteinSearchOptions { return &o }
	thr := 10
	cases := []struct {
		name string
		req  ScanRequest
		want error
	}{
		{"threshold", ScanRequest{Query: q, Reference: ref, Threshold: &thr, ProteinSearch: ps(ProteinSearchOptions{})}, ErrBadOption},
		{"thresholdFrac", ScanRequest{Query: q, Reference: ref, ThresholdFrac: 0.5, ProteinSearch: ps(ProteinSearchOptions{})}, ErrBadOption},
		{"kernel", ScanRequest{Query: q, Reference: ref, Kernel: KernelScalar, ProteinSearch: ps(ProteinSearchOptions{})}, ErrBadOption},
		{"shardLen", ScanRequest{Query: q, Reference: ref, ShardLen: 128, ProteinSearch: ps(ProteinSearchOptions{})}, ErrBadOption},
		{"retry", ScanRequest{Query: q, Reference: ref, RetryPolicy: RetryPolicy{MaxRetries: 2}, ProteinSearch: ps(ProteinSearchOptions{})}, ErrBadOption},
		{"partial", ScanRequest{Query: q, Reference: ref, Partial: true, ProteinSearch: ps(ProteinSearchOptions{})}, ErrBadOption},
		{"maxHits", ScanRequest{Query: q, Reference: ref, MaxHits: -1, ProteinSearch: ps(ProteinSearchOptions{})}, ErrBadOption},
		{"frames", ScanRequest{Query: q, Reference: ref, ProteinSearch: ps(ProteinSearchOptions{Frames: 7})}, ErrBadOption},
		{"minScore", ScanRequest{Query: q, Reference: ref, ProteinSearch: ps(ProteinSearchOptions{MinScore: -2})}, ErrBadOption},
		{"threads", ScanRequest{Query: q, Reference: ref, ProteinSearch: ps(ProteinSearchOptions{Threads: -1})}, ErrBadOption},
		{"nilQuery", ScanRequest{Reference: ref, ProteinSearch: ps(ProteinSearchOptions{})}, ErrBadQuery},
		{"noTarget", ScanRequest{Query: q, ProteinSearch: ps(ProteinSearchOptions{})}, ErrBadOption},
	}
	for _, tc := range cases {
		if _, err := Scan(context.Background(), tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestScanProteinCache checks protein results flow through the result
// cache with correct provenance, that Threads is excluded from the key,
// and that MaxHits clips per-request without touching the cached copy.
func TestScanProteinCache(t *testing.T) {
	SetScanCacheCapacity(16 << 20)
	defer SetScanCacheCapacity(0)

	q, ref := proteinFixture(t, 33, 30_000)
	req := ScanRequest{Query: q, Reference: ref,
		ProteinSearch: &ProteinSearchOptions{Threads: 1, MinScore: MinScoreAll}}
	first, err := Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache != CacheMiss {
		t.Fatalf("first scan provenance %v, want miss", first.Cache)
	}
	if len(first.HSPs) < 2 {
		t.Fatalf("fixture too quiet: %d HSPs", len(first.HSPs))
	}

	// Same options at a different thread count must hit: the scan is
	// thread-invariant so Threads is not part of the key.
	req.ProteinSearch = &ProteinSearchOptions{Threads: 8, MinScore: MinScoreAll}
	second, err := Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != CacheHit {
		t.Fatalf("second scan provenance %v, want hit", second.Cache)
	}
	if !reflect.DeepEqual(first.HSPs, second.HSPs) {
		t.Fatal("cached HSPs differ from the seeding scan")
	}

	// Different pipeline options must miss.
	req.ProteinSearch = &ProteinSearchOptions{Threads: 1, MinScore: MinScoreAll, TwoHit: true}
	third, err := Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cache != CacheMiss {
		t.Fatalf("changed options provenance %v, want miss", third.Cache)
	}

	// MaxHits clips per-request; the resident copy stays complete.
	req.ProteinSearch = &ProteinSearchOptions{Threads: 1, MinScore: MinScoreAll}
	req.MaxHits = 1
	clippedRes, err := Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(clippedRes.HSPs) != 1 || !clippedRes.Truncated {
		t.Fatalf("MaxHits=1: got %d HSPs, truncated=%v", len(clippedRes.HSPs), clippedRes.Truncated)
	}
	req.MaxHits = 0
	full, err := Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.HSPs) != len(first.HSPs) {
		t.Fatalf("clipping leaked into the cache: %d vs %d HSPs", len(full.HSPs), len(first.HSPs))
	}

	// CachedScan (the server's pre-admission fast path) must see it too.
	if res, ok := CachedScan(req); !ok || res.Cache != CacheHit {
		t.Fatalf("CachedScan ok=%v", ok)
	}
}

// TestSearchProteinFindsPlantedGene: the protein search facade puts its
// top HSP on a planted gene's forward frame and locus.
func TestSearchProteinFindsPlantedGene(t *testing.T) {
	ref, genes := SyntheticReference(11, 30_000, 3, 50)
	q, _ := NewQuery(genes[0].Protein)
	hsps, err := SearchProtein(context.Background(), q, ref, ProteinSearchOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(hsps) == 0 {
		t.Fatal("no HSPs")
	}
	top := hsps[0]
	if top.Frame != "+1" && top.Frame != "+2" && top.Frame != "+3" {
		t.Errorf("top frame %s", top.Frame)
	}
	if top.NucPos < genes[0].Pos-10 || top.NucPos > genes[0].Pos+150 {
		t.Errorf("top HSP at %d, planted at %d", top.NucPos, genes[0].Pos)
	}
}

// TestSearchProteinCancelMidScan cancels a sharded protein search mid-
// flight: it must return promptly with context.Canceled and leak no
// goroutines.
func TestSearchProteinCancelMidScan(t *testing.T) {
	baseline := runtime.NumGoroutine()
	q, ref := proteinFixture(t, 35, 2_000_000)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := SearchProtein(ctx, q, ref, ProteinSearchOptions{
			Threads: 8, MinScore: MinScoreAll, NeighborThreshold: NeighborThresholdAll,
		})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Log("scan completed before cancel fired; leak check still applies")
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unwind the scan within 5s")
	}
	// Shed shards may still be draining; they must all exit.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
