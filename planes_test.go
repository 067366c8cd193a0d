package fabp

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fabp/internal/bitpar"
)

// TestColdScansPackOnce: concurrent first scans of one cold Database, and
// of one fresh Reference, pack the target's planes exactly once, and
// every scan returns the same hits. The target's own memo is the only
// one; run it under -race.
func TestColdScansPackOnce(t *testing.T) {
	ref, genes := SyntheticReference(41, 200_000, 2, 30)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	a := mustConformAligner(t, q, WithThresholdFraction(0.8), WithShardLen(8192), WithParallelism(2))
	want := a.Align(ref)
	if len(want) == 0 {
		t.Fatal("planted gene not found; the test is vacuous")
	}
	const n = 8
	// concurrently runs scan on n goroutines at once and reports how many
	// times they packed planes between them.
	concurrently := func(scan func() []Hit) uint64 {
		t.Helper()
		packs := bitpar.PackCount()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if got := scan(); !slices.Equal(got, want) {
					t.Errorf("a concurrent cold scan returned %d hits, want %d", len(got), len(want))
				}
			}()
		}
		close(start)
		wg.Wait()
		return bitpar.PackCount() - packs
	}

	t.Run("Database", func(t *testing.T) {
		d, err := DatabaseFromReference("cold", ref)
		if err != nil {
			t.Fatal(err)
		}
		if packs := concurrently(func() []Hit { return recordHitsAsHits(a.AlignDatabase(d)) }); packs != 1 {
			t.Fatalf("%d concurrent cold scans of one Database packed %d times, want 1", n, packs)
		}
	})
	t.Run("Reference", func(t *testing.T) {
		fresh, err := NewReference(ref.String())
		if err != nil {
			t.Fatal(err)
		}
		if packs := concurrently(func() []Hit { return a.Align(fresh) }); packs != 1 {
			t.Fatalf("%d concurrent cold scans of one Reference packed %d times, want 1", n, packs)
		}
	})
}

// TestScannedReferenceCollected: the planes a scan packs belong to the
// Reference, so a 4 Mi nt Reference that has been scanned — one query and
// a fused batch — and then dropped by the caller is finalized after GC
// rather than held by a process-wide cache.
func TestScannedReferenceCollected(t *testing.T) {
	base, genes := SyntheticReference(43, 4<<20, 1, 30)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	a := mustConformAligner(t, q, WithThresholdFraction(0.8))
	finalized := make(chan struct{})
	func() {
		ref, err := NewReference(base.String())
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Align(ref)) == 0 {
			t.Fatal("planted gene not found; the test is vacuous")
		}
		if _, err := Scan(context.Background(), ScanRequest{Queries: []*Query{q, q}, Reference: ref, ThresholdFrac: 0.8}); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(ref, func(*Reference) { close(finalized) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-finalized:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("a scanned Reference the caller dropped is still reachable after GC")
}

// TestScalarScanAllocs pins explicit-KernelScalar memory on a 4 Mi nt
// target: every scalar shard reads back only its own letters from the
// target's planes, so a warm scan never copies the whole target. Each
// bound is the TotalAlloc delta of the second call; the first packs the
// planes.
func TestScalarScanAllocs(t *testing.T) {
	ref, genes := SyntheticReference(45, 4<<20, 1, 30)
	d, err := DatabaseFromReference("big", ref)
	if err != nil {
		t.Fatal(err)
	}
	letters := ref.String()
	// A 12-residue prefix of the planted gene at a high threshold: few hits,
	// and a short window keeps the scalar scans quick under -race.
	q, err := NewQuery(genes[0].Protein[:12])
	if err != nil {
		t.Fatal(err)
	}
	a := mustConformAligner(t, q, WithThresholdFraction(0.9), WithKernelType(KernelScalar), WithParallelism(2))
	secondCall := func(scan func() int) uint64 {
		t.Helper()
		if scan() == 0 {
			t.Fatal("planted gene not found; the allocation pin is vacuous")
		}
		return allocDuring(func() { scan() })
	}
	for _, c := range []struct {
		name  string
		bound uint64
		scan  func() int
	}{
		{"AlignDatabase", 2048 << 10, func() int { return len(a.AlignDatabase(d)) }},
		{"Align", 2048 << 10, func() int { return len(a.Align(ref)) }},
		{"AlignStream", 5658 << 10, func() int {
			hits := 0
			if err := a.AlignStream(strings.NewReader(letters), func(Hit) error { hits++; return nil }); err != nil {
				t.Fatal(err)
			}
			return hits
		}},
	} {
		if alloc := secondCall(c.scan); alloc > c.bound {
			t.Errorf("scalar %s of %d nt allocated %d KiB, want ≤ %d KiB", c.name, ref.Len(), alloc>>10, c.bound>>10)
		} else {
			t.Logf("scalar %s of %d nt allocated %d KiB", c.name, ref.Len(), alloc>>10)
		}
	}
}

// allocDuring returns the bytes f allocates (the TotalAlloc delta).
func allocDuring(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestBestAllocs pins Aligner.Best on a 4 Mi nt Reference: the best-hit
// scan reads the planes the Reference memoized, so a warm Best allocates
// no plane set of its own (1 040 KiB each when it packed privately).
func TestBestAllocs(t *testing.T) {
	ref, genes := SyntheticReference(47, 4<<20, 1, 30)
	q, err := NewQuery(genes[0].Protein[:12])
	if err != nil {
		t.Fatal(err)
	}
	a := mustConformAligner(t, q, WithThresholdFraction(0.9))
	if best, ok := a.Best(ref); !ok || best.Pos != genes[0].Pos {
		t.Fatalf("Best = %+v/%v, want the planted gene at %d", best, ok, genes[0].Pos)
	}
	if alloc := allocDuring(func() { a.Best(ref) }); alloc >= 64<<10 {
		t.Fatalf("a warm Best on %d nt allocated %d KiB, want < 64 KiB", ref.Len(), alloc>>10)
	}
}

// TestWarmPlanesAllocs pins Database.WarmPlanes on 4 Mi nt: the planes are
// packed straight from the 2-bit payload, so the call allocates the
// planes themselves (1 024 KiB) and no unpacked copy of the sequence
// (5 136 KiB when it packed through Unpack).
func TestWarmPlanesAllocs(t *testing.T) {
	ref, _ := SyntheticReference(49, 4<<20, 1, 30)
	d, err := DatabaseFromReference("big", ref)
	if err != nil {
		t.Fatal(err)
	}
	packs := bitpar.PackCount()
	alloc := allocDuring(d.WarmPlanes)
	if n := bitpar.PackCount() - packs; n != 1 {
		t.Fatalf("WarmPlanes packed %d times, want 1", n)
	}
	if bound := uint64(1100 << 10); alloc > bound {
		t.Fatalf("WarmPlanes on %d nt allocated %d KiB, want ≤ %d KiB", d.Len(), alloc>>10, bound>>10)
	}
}

// TestAsReferenceSharesPlanes: a Reference is a view of a Database, so on
// a warmed 4 Mi nt Database, AsReference followed by Align and Best packs
// nothing and copies nothing — no unpacked sequence (4 096 KiB) and no
// second plane set (1 024 KiB), which a Reference holding letters of its
// own cost.
func TestAsReferenceSharesPlanes(t *testing.T) {
	base, genes := SyntheticReference(51, 4<<20, 1, 30)
	d, err := DatabaseFromReference("big", base)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(genes[0].Protein[:12])
	if err != nil {
		t.Fatal(err)
	}
	a := mustConformAligner(t, q, WithThresholdFraction(0.9))
	d.WarmPlanes()
	packs := bitpar.PackCount()
	var hits []Hit
	var best Hit
	alloc := allocDuring(func() {
		ref := d.AsReference()
		hits = a.Align(ref)
		best, _ = a.Best(ref)
	})
	if n := bitpar.PackCount() - packs; n != 0 {
		t.Errorf("AsReference + Align + Best on a warm Database packed %d times, want 0", n)
	}
	if !slices.Contains(hits, Hit{Pos: genes[0].Pos, Score: q.MaxScore()}) || best.Pos != genes[0].Pos {
		t.Fatalf("Align found %d hits and Best %+v, want the planted gene at %d", len(hits), best, genes[0].Pos)
	}
	if alloc >= 64<<10 {
		t.Fatalf("AsReference + Align + Best on %d nt allocated %d KiB, want < 64 KiB", d.Len(), alloc>>10)
	}
	t.Logf("AsReference + Align + Best on %d nt allocated %d KiB", d.Len(), alloc>>10)
}
